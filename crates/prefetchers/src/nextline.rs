//! Next-line prefetching.
//!
//! The paper's baseline core uses a next-line *instruction* prefetcher;
//! on the data side, next-N-line prefetching is the canonical simple
//! scheme that prior work (and the paper's introduction) found ineffective
//! for server workloads. Included as a sanity baseline: it should trail
//! every temporal prefetcher on the temporal workloads while costing no
//! metadata traffic at all.

use domino_mem::interface::{PrefetchRequest, PrefetchSink, Prefetcher, TriggerEvent, TriggerKind};

/// Prefetches the next `degree` sequential lines on every miss.
#[derive(Debug, Clone)]
pub struct NextLine {
    degree: usize,
}

impl NextLine {
    /// Creates a next-line prefetcher of the given degree.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn new(degree: usize) -> Self {
        assert!(degree > 0, "degree must be positive");
        NextLine { degree }
    }
}

impl Prefetcher for NextLine {
    fn name(&self) -> &str {
        "NextLine"
    }

    fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink) {
        if event.kind != TriggerKind::Miss {
            return;
        }
        for d in 1..=self.degree {
            sink.prefetch(PrefetchRequest::immediate(event.line.offset(d as i64)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_mem::interface::CollectSink;
    use domino_trace::addr::{LineAddr, Pc};

    #[test]
    fn prefetches_sequential_lines() {
        let mut p = NextLine::new(3);
        let mut sink = CollectSink::new();
        p.on_trigger(
            &TriggerEvent::miss(Pc::new(0), LineAddr::new(10)),
            &mut sink,
        );
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(lines, vec![11, 12, 13]);
        assert_eq!(sink.meta_read_blocks, 0, "no metadata traffic");
    }

    #[test]
    fn ignores_prefetch_hits() {
        let mut p = NextLine::new(1);
        let mut sink = CollectSink::new();
        p.on_trigger(
            &TriggerEvent::prefetch_hit(Pc::new(0), LineAddr::new(10)),
            &mut sink,
        );
        assert!(sink.requests.is_empty());
    }
}
