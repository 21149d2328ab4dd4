//! Irregular Stream Buffer (Jain & Lin, MICRO 2013) — idealized PC/AC.
//!
//! ISB combines **PC localization** with **address correlation**: the
//! global miss stream is split into per-PC streams, and each PC's stream
//! is linearized into a structural address space so that consecutive
//! correlated addresses become sequential. Following the paper's
//! methodology (§IV-D), we model the *idealized* PC/AC variant with
//! infinite metadata and no structural-space artefacts: for every
//! `(PC, address)` pair we remember where it last occurred in that PC's
//! miss sequence and prefetch the addresses that followed.
//!
//! The paper's point (Figures 1, 11, 13) is that this is the *wrong*
//! localization for server workloads: PC localization breaks the strong
//! global temporal correlation, and predictions are "the following misses
//! of a memory instruction, which may not be the subsequent misses of the
//! workload" — so prefetches arrive far too early and are evicted from
//! the small buffer before their re-execution. Both effects emerge
//! naturally here: the predictions are per-PC successors, and the shared
//! 32-block prefetch buffer does the evicting.

use domino_trace::FxHashMap;

use domino_mem::interface::{PrefetchRequest, PrefetchSink, Prefetcher, TriggerEvent};
use domino_trace::addr::{LineAddr, Pc};

/// Sentinel: no successor recorded yet.
const NO_NODE: u32 = u32::MAX;

/// The arena index of a node pushed onto an arena of `len` nodes.
///
/// # Panics
///
/// Panics once the arena holds `NO_NODE` (2³²−1) nodes: that index is
/// the no-successor sentinel and any larger one wraps, either of which
/// would silently corrupt the per-PC chains.
fn arena_index(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(idx) if idx != NO_NODE => idx,
        _ => panic!("ISB arena full: index {len} is not below the NO_NODE bound ({NO_NODE})"),
    }
}

/// One logged triggering event in the shared sequence arena: the line and
/// the arena index of the *next* event of the same PC's stream. The
/// per-PC sequences of the idealized design thus live as linked chains in
/// one flat, append-only slab — no per-PC `Vec` to grow per event.
#[derive(Debug, Clone, Copy)]
struct SeqNode {
    line: LineAddr,
    next: u32,
}

/// Idealized PC-localized address-correlation prefetcher.
#[derive(Debug)]
pub struct Isb {
    degree: usize,
    /// Append-only arena holding every PC's miss sequence as linked
    /// chains (infinite idealized storage).
    nodes: Vec<SeqNode>,
    /// Per-PC chain tail: arena index of the PC's most recent event.
    tails: FxHashMap<Pc, u32>,
    /// `(PC, line)` → arena index of the pair's last occurrence.
    last: FxHashMap<(Pc, LineAddr), u32>,
}

impl Isb {
    /// Creates an idealized ISB with the given prefetch degree.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn new(degree: usize) -> Self {
        assert!(degree > 0, "degree must be positive");
        Isb {
            degree,
            nodes: Vec::new(),
            tails: FxHashMap::default(),
            last: FxHashMap::default(),
        }
    }
}

impl Prefetcher for Isb {
    fn name(&self) -> &str {
        "ISB"
    }

    fn reserve(&mut self, expected_events: usize) {
        // One node per triggering event: pre-sizing the arena keeps the
        // event loop free of `Vec` growth.
        self.nodes.reserve(expected_events);
    }

    fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.len() * size_of::<SeqNode>()
            + self.tails.len() * (size_of::<Pc>() + size_of::<u32>())
            + self.last.len() * (size_of::<(Pc, LineAddr)>() + size_of::<u32>())
    }

    fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink) {
        // Predict: walk the successors of the last occurrence of this
        // address in this PC's stream. Idealized on-chip metadata: no
        // trip delay.
        if let Some(&idx) = self.last.get(&(event.pc, event.line)) {
            let mut cur = idx as usize;
            for _ in 0..self.degree {
                let next = self.nodes[cur].next;
                if next == NO_NODE {
                    break;
                }
                let line = self.nodes[next as usize].line;
                if line != event.line {
                    sink.prefetch(PrefetchRequest::immediate(line));
                }
                cur = next as usize;
            }
        }
        // Train: append the event and link it behind the PC's tail.
        let new_idx = arena_index(self.nodes.len());
        self.nodes.push(SeqNode {
            line: event.line,
            next: NO_NODE,
        });
        if let Some(&tail) = self.tails.get(&event.pc) {
            self.nodes[tail as usize].next = new_idx;
        }
        self.tails.insert(event.pc, new_idx);
        self.last.insert((event.pc, event.line), new_idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_mem::interface::CollectSink;

    fn miss(pc: u64, line: u64) -> TriggerEvent {
        TriggerEvent::miss(Pc::new(pc), LineAddr::new(line))
    }

    fn drive(p: &mut Isb, accesses: &[(u64, u64)]) -> Vec<u64> {
        let mut out = Vec::new();
        for &(pc, line) in accesses {
            let mut sink = CollectSink::new();
            p.on_trigger(&miss(pc, line), &mut sink);
            out.extend(sink.requests.iter().map(|r| r.line.raw()));
        }
        out
    }

    #[test]
    fn predicts_per_pc_successors() {
        let mut p = Isb::new(2);
        // PC 1's stream: 10, 20, 30; then re-miss on 10.
        drive(&mut p, &[(1, 10), (1, 20), (1, 30)]);
        let issued = drive(&mut p, &[(1, 10)]);
        assert_eq!(issued, vec![20, 30]);
    }

    #[test]
    fn localization_ignores_other_pcs() {
        let mut p = Isb::new(1);
        // Global stream 10, 99, 20 — but 99 is another PC's miss.
        drive(&mut p, &[(1, 10), (2, 99), (1, 20)]);
        let issued = drive(&mut p, &[(1, 10)]);
        // ISB predicts PC 1's successor (20), not the global one (99).
        assert_eq!(issued, vec![20]);
    }

    #[test]
    fn interleaved_data_structures_break_pc_streams() {
        // The same loop PC walks two different structures alternately:
        // the per-PC successor of each address keeps changing.
        let mut p = Isb::new(1);
        drive(&mut p, &[(1, 10), (1, 50), (1, 11), (1, 51)]);
        // Re-miss on 10: per-PC successor is 50 (what followed last time),
        // even if the program is now in the 10→11 structure.
        let issued = drive(&mut p, &[(1, 10)]);
        assert_eq!(issued, vec![50]);
    }

    #[test]
    fn arena_index_reaches_the_last_index_below_the_sentinel() {
        assert_eq!(arena_index(NO_NODE as usize - 1), NO_NODE - 1);
    }

    #[test]
    #[should_panic(expected = "NO_NODE bound")]
    fn arena_index_refuses_the_sentinel() {
        arena_index(NO_NODE as usize);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "NO_NODE bound")]
    fn arena_index_refuses_to_wrap() {
        arena_index(1 << 32);
    }

    #[test]
    fn footprint_counts_arena_and_maps() {
        let mut p = Isb::new(1);
        assert_eq!(p.footprint_bytes(), 0);
        drive(&mut p, &[(1, 10), (1, 20), (2, 10), (1, 10)]);
        // Four nodes, two PC tails, three distinct (PC, line) pairs.
        let want = 4 * std::mem::size_of::<SeqNode>() + 2 * (8 + 4) + 3 * (16 + 4);
        assert_eq!(p.footprint_bytes(), want);
    }

    #[test]
    fn unknown_address_is_silent() {
        let mut p = Isb::new(4);
        let issued = drive(&mut p, &[(1, 10), (1, 20), (2, 10)]);
        assert!(issued.is_empty(), "PC 2 never saw address 10 before");
    }
}
