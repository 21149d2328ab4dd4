//! PC-stride prefetching (Baer & Chen style reference-prediction table).
//!
//! The classic scheme the paper's introduction cites as "ineffective for
//! server workloads": per-PC last address + stride with a two-bit
//! confidence state. Included as a baseline so the reproduction can show
//! the same conclusion on its synthetic workloads.

use domino_trace::FxHashMap;

use domino_mem::interface::{PrefetchRequest, PrefetchSink, Prefetcher, TriggerEvent, TriggerKind};
use domino_trace::addr::Pc;

#[derive(Debug, Clone, Copy)]
struct RptEntry {
    last_line: u64,
    stride: i64,
    confidence: u8,
}

/// Reference-prediction-table stride prefetcher.
#[derive(Debug)]
pub struct StridePrefetcher {
    degree: usize,
    table: FxHashMap<Pc, RptEntry>,
    max_entries: usize,
    confidence_threshold: u8,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher with the given degree and RPT capacity.
    ///
    /// # Panics
    ///
    /// Panics if `degree` or `max_entries` is zero.
    pub fn new(degree: usize, max_entries: usize) -> Self {
        assert!(degree > 0, "degree must be positive");
        assert!(max_entries > 0, "table needs capacity");
        StridePrefetcher {
            degree,
            table: FxHashMap::default(),
            max_entries,
            confidence_threshold: 2,
        }
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &str {
        "Stride"
    }

    fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink) {
        if event.kind != TriggerKind::Miss {
            return;
        }
        let line = event.line.raw();
        match self.table.get_mut(&event.pc) {
            Some(e) => {
                let stride = line.wrapping_sub(e.last_line) as i64;
                if stride == e.stride && stride != 0 {
                    e.confidence = (e.confidence + 1).min(3);
                } else {
                    e.confidence = e.confidence.saturating_sub(1);
                    if e.confidence == 0 {
                        e.stride = stride;
                    }
                }
                e.last_line = line;
                if e.confidence >= self.confidence_threshold && e.stride != 0 {
                    for d in 1..=self.degree {
                        let target = line.wrapping_add((e.stride * d as i64) as u64);
                        sink.prefetch(PrefetchRequest::immediate(target.into()));
                    }
                }
            }
            None => {
                // Crude capacity control: clear when full (a real RPT would
                // use LRU; workloads here have small PC working sets).
                if self.table.len() >= self.max_entries {
                    self.table.clear();
                }
                self.table.insert(
                    event.pc,
                    RptEntry {
                        last_line: line,
                        stride: 0,
                        confidence: 0,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_mem::interface::CollectSink;
    use domino_trace::addr::{LineAddr, Pc};

    fn miss(pc: u64, line: u64) -> TriggerEvent {
        TriggerEvent::miss(Pc::new(pc), LineAddr::new(line))
    }

    fn drive(p: &mut StridePrefetcher, accesses: &[(u64, u64)]) -> Vec<u64> {
        let mut out = Vec::new();
        for &(pc, line) in accesses {
            let mut sink = CollectSink::new();
            p.on_trigger(&miss(pc, line), &mut sink);
            out.extend(sink.requests.iter().map(|r| r.line.raw()));
        }
        out
    }

    #[test]
    fn learns_a_constant_stride() {
        let mut p = StridePrefetcher::new(2, 64);
        let issued = drive(&mut p, &[(1, 10), (1, 14), (1, 18), (1, 22)]);
        // After confidence builds, prefetch 26 and 30 (stride 4).
        assert!(issued.contains(&26), "issued: {issued:?}");
        assert!(issued.contains(&30), "issued: {issued:?}");
    }

    #[test]
    fn irregular_pattern_stays_silent() {
        let mut p = StridePrefetcher::new(2, 64);
        let issued = drive(&mut p, &[(1, 10), (1, 99), (1, 3), (1, 57), (1, 1000)]);
        assert!(issued.is_empty(), "issued: {issued:?}");
    }

    #[test]
    fn strides_are_per_pc() {
        let mut p = StridePrefetcher::new(1, 64);
        // PC 1 strides by 2; PC 2 interleaves with stride 5.
        let issued = drive(
            &mut p,
            &[
                (1, 10),
                (2, 100),
                (1, 12),
                (2, 105),
                (1, 14),
                (2, 110),
                (1, 16),
                (2, 115),
            ],
        );
        assert!(issued.contains(&18));
        assert!(issued.contains(&120));
    }
}
