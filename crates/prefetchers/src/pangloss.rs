//! Pangloss (Papaphilippou, Kelly & Luk, DPC-3 2019 / arXiv 1906.00877)
//! — a Markov-chain prefetcher with *compressed* per-entry transition
//! tables, the stronger of the two post-Domino rivals on the roster.
//!
//! Where the classic Markov prefetcher ([`crate::markov`]) keeps an
//! unbounded map of successor lists, Pangloss holds the whole chain in a
//! fixed set-associative slab: every entry owns a bounded fan-out of
//! next-line edges weighted by small saturating frequency counters, and
//! when an entry's fan-out is full the *minimum-frequency* edge is the
//! victim — the transition least likely to be taken again. Prediction
//! walks the chain: from the triggering line it repeatedly follows the
//! strongest edge, issuing one prefetch per step up to the configured
//! degree (the paper samples the transition distribution; we take the
//! mode so replays are deterministic).
//!
//! Against Domino this rival shows what an *on-chip* compressed Markov
//! chain buys (zero off-chip metadata traffic, zero lookup trips) and
//! what it costs (reach bounded by the slab, junction fan-out bounded by
//! the per-entry edge budget).

use domino_mem::interface::{PrefetchRequest, PrefetchSink, Prefetcher, TriggerEvent};
use domino_trace::addr::LineAddr;
use domino_trace::FxHashMap;

/// Hard cap on per-entry successor edges: slab entries embed a
/// fixed-width edge array, so `fanout` must fit in it.
pub const MAX_FANOUT: usize = 8;

/// Hard cap on the chain-walk depth (the duplicate-suppression scratch
/// during prediction is a fixed-width array).
pub const MAX_DEGREE: usize = 64;

/// Pangloss configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanglossConfig {
    /// Transition-table sets.
    pub sets: usize,
    /// Entries per set.
    pub ways: usize,
    /// Successor edges kept per entry (≤ [`MAX_FANOUT`]).
    pub fanout: usize,
    /// Chain-walk depth: prefetches issued per trigger (≤ [`MAX_DEGREE`]).
    pub degree: usize,
}

impl Default for PanglossConfig {
    fn default() -> Self {
        // 2048 × 4 = 8K entries ≈ the DPC-3 submission's table scale.
        PanglossConfig {
            sets: 2048,
            ways: 4,
            fanout: 6,
            degree: 4,
        }
    }
}

impl PanglossConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero capacities or caps above the slab widths.
    pub fn validate(&self) {
        assert!(self.sets > 0, "need at least one set");
        assert!(self.ways > 0, "need at least one way");
        assert!(
            self.fanout > 0 && self.fanout <= MAX_FANOUT,
            "fanout must be in 1..={MAX_FANOUT}"
        );
        assert!(
            self.degree > 0 && self.degree <= MAX_DEGREE,
            "degree must be in 1..={MAX_DEGREE}"
        );
    }

    /// Returns the config with the given prefetch degree.
    pub fn with_degree(mut self, degree: usize) -> Self {
        self.degree = degree;
        self
    }
}

/// One weighted transition edge. `count == 0` marks an empty slot.
#[derive(Debug, Clone, Copy)]
struct Edge {
    line: LineAddr,
    count: u8,
}

const EMPTY_EDGE: Edge = Edge {
    line: LineAddr::new(0),
    count: 0,
};

/// One transition-table entry: a source line plus its bounded fan-out of
/// weighted successor edges (slots `0..len` are live).
#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: LineAddr,
    valid: bool,
    edges: [Edge; MAX_FANOUT],
    len: u8,
}

const EMPTY_ENTRY: Entry = Entry {
    tag: LineAddr::new(0),
    valid: false,
    edges: [EMPTY_EDGE; MAX_FANOUT],
    len: 0,
};

/// The Pangloss prefetcher.
///
/// ```
/// use domino_mem::{CollectSink, Prefetcher, TriggerEvent};
/// use domino_prefetchers::{Pangloss, PanglossConfig};
/// use domino_trace::addr::{LineAddr, Pc};
///
/// let mut p = Pangloss::new(PanglossConfig::default());
/// let mut sink = CollectSink::new();
/// // First-ever trigger: no transitions learned yet.
/// p.on_trigger(&TriggerEvent::miss(Pc::new(1), LineAddr::new(10)), &mut sink);
/// assert!(sink.requests.is_empty());
/// ```
#[derive(Debug)]
pub struct Pangloss {
    cfg: PanglossConfig,
    /// Set-associative transition slab, `sets * ways` entries, allocated
    /// once at construction (zero per-event allocation).
    table: Vec<Entry>,
    /// Previous triggering line (first-order chain context).
    prev: Option<LineAddr>,
    /// Reference counts of lines recorded as an edge target, kept in
    /// lockstep with the slab so [`Prefetcher::knows_line`] is O(1).
    targets: FxHashMap<LineAddr, u32>,
    trains: u64,
    predictions: u64,
    edge_evictions: u64,
    entry_evictions: u64,
}

impl Pangloss {
    /// Creates a Pangloss prefetcher; allocates the full slab up front.
    pub fn new(cfg: PanglossConfig) -> Self {
        cfg.validate();
        Pangloss {
            table: vec![EMPTY_ENTRY; cfg.sets * cfg.ways],
            prev: None,
            targets: FxHashMap::default(),
            cfg,
            trains: 0,
            predictions: 0,
            edge_evictions: 0,
            entry_evictions: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() % self.cfg.sets as u64) as usize
    }

    fn ways_of(&self, line: LineAddr) -> std::ops::Range<usize> {
        let base = self.set_of(line) * self.cfg.ways;
        base..base + self.cfg.ways
    }

    fn target_inc(&mut self, line: LineAddr) {
        *self.targets.entry(line).or_insert(0) += 1;
    }

    fn target_dec(&mut self, line: LineAddr) {
        let count = self
            .targets
            .get_mut(&line)
            .expect("edge targets are refcounted in lockstep with the slab");
        *count -= 1;
        if *count == 0 {
            self.targets.remove(&line);
        }
    }

    /// Records the transition `from → to` (never called with
    /// `from == to`).
    fn train(&mut self, from: LineAddr, to: LineAddr, sink: &mut dyn PrefetchSink) {
        self.trains += 1;
        let ways = self.ways_of(from);
        if let Some(slot) = self.table[ways.clone()]
            .iter()
            .position(|e| e.valid && e.tag == from)
        {
            let idx = ways.start + slot;
            let len = self.table[idx].len as usize;
            if let Some(e) = self.table[idx].edges[..len]
                .iter_mut()
                .find(|e| e.line == to)
            {
                // Known edge: counters saturate, never wrap.
                e.count = e.count.saturating_add(1);
            } else if len < self.cfg.fanout {
                self.table[idx].edges[len] = Edge { line: to, count: 1 };
                self.table[idx].len += 1;
                self.target_inc(to);
            } else {
                // Fan-out full: evict the minimum-frequency edge; ties go
                // to the lowest slot (the oldest edge).
                #[cfg(domino_mutate)]
                let last_min_wins = crate::mutate_active("pangloss_victim_tiebreak");
                #[cfg(not(domino_mutate))]
                let last_min_wins = false;
                let mut victim = 0usize;
                for i in 1..len {
                    let edges = &self.table[idx].edges;
                    let better = if last_min_wins {
                        edges[i].count <= edges[victim].count
                    } else {
                        edges[i].count < edges[victim].count
                    };
                    if better {
                        victim = i;
                    }
                }
                let old = self.table[idx].edges[victim].line;
                self.table[idx].edges[victim] = Edge { line: to, count: 1 };
                self.target_dec(old);
                self.target_inc(to);
                self.edge_evictions += 1;
            }
        } else {
            // Allocate an entry: an invalid way if any, else the way with
            // the minimum total edge frequency (ties to the lowest way).
            let mut victim = ways.start;
            let mut found_invalid = false;
            for idx in ways.clone() {
                if !self.table[idx].valid {
                    victim = idx;
                    found_invalid = true;
                    break;
                }
            }
            if !found_invalid {
                let weight = |e: &Entry| -> u32 {
                    e.edges[..e.len as usize]
                        .iter()
                        .map(|edge| u32::from(edge.count))
                        .sum()
                };
                victim = ways.start;
                for idx in ways.clone().skip(1) {
                    if weight(&self.table[idx]) < weight(&self.table[victim]) {
                        victim = idx;
                    }
                }
                let evicted = self.table[victim];
                for edge in &evicted.edges[..evicted.len as usize] {
                    self.target_dec(edge.line);
                }
                sink.metadata_replace(evicted.tag);
                self.entry_evictions += 1;
            }
            self.table[victim] = Entry {
                tag: from,
                valid: true,
                edges: [EMPTY_EDGE; MAX_FANOUT],
                len: 1,
            };
            self.table[victim].edges[0] = Edge { line: to, count: 1 };
            self.target_inc(to);
        }
    }

    /// Strongest edge of `line`'s entry, if any (ties to the lowest slot).
    fn strongest(&self, line: LineAddr) -> Option<LineAddr> {
        let entry = self.table[self.ways_of(line)]
            .iter()
            .find(|e| e.valid && e.tag == line)?;
        if entry.len == 0 {
            return None;
        }
        let mut best = 0usize;
        for i in 1..entry.len as usize {
            if entry.edges[i].count > entry.edges[best].count {
                best = i;
            }
        }
        Some(entry.edges[best].line)
    }

    /// Walks the chain from `line`, issuing one prefetch per step.
    fn predict(&mut self, line: LineAddr, sink: &mut dyn PrefetchSink) {
        let mut issued = [LineAddr::new(0); MAX_DEGREE];
        let mut n = 0usize;
        let mut cur = line;
        while n < self.cfg.degree {
            let Some(next) = self.strongest(cur) else {
                break;
            };
            if next == line || issued[..n].contains(&next) {
                break; // chain closed a loop; stop rather than re-issue
            }
            sink.prefetch(PrefetchRequest::immediate(next));
            self.predictions += 1;
            issued[n] = next;
            n += 1;
            cur = next;
        }
    }
}

impl Prefetcher for Pangloss {
    fn name(&self) -> &str {
        "Pangloss"
    }

    fn reserve(&mut self, expected_events: usize) {
        // Capacity-only: pre-size the target refcounts up to the most
        // distinct targets the slab can ever hold.
        let cap = expected_events.min(self.cfg.sets * self.cfg.ways * self.cfg.fanout);
        self.targets.reserve(cap.saturating_sub(self.targets.len()));
    }

    fn emit_counters(&self, sink: &mut dyn domino_telemetry::CounterSink) {
        sink.counter("pangloss.trains", self.trains);
        sink.counter("pangloss.predictions", self.predictions);
        sink.counter("pangloss.edge_evictions", self.edge_evictions);
        sink.counter("pangloss.entry_evictions", self.entry_evictions);
    }

    fn knows_line(&self, line: LineAddr) -> bool {
        self.targets.contains_key(&line)
    }

    fn footprint_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<Entry>()
            + self.targets.len() * (std::mem::size_of::<LineAddr>() + std::mem::size_of::<u32>())
    }

    fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink) {
        // Misses and prefetch hits both extend the chain: a prefetch hit
        // is a miss the chain already covered, and training on it keeps
        // the frequencies honest once coverage ramps up.
        let line = event.line;
        if let Some(prev) = self.prev.replace(line) {
            if prev != line {
                self.train(prev, line, sink);
            }
        }
        self.predict(line, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_mem::interface::CollectSink;
    use domino_trace::addr::Pc;

    fn tiny() -> PanglossConfig {
        PanglossConfig {
            sets: 4,
            ways: 2,
            fanout: 2,
            degree: 2,
        }
    }

    fn miss(line: u64) -> TriggerEvent {
        TriggerEvent::miss(Pc::new(0), LineAddr::new(line))
    }

    fn run(p: &mut Pangloss, lines: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for &l in lines {
            let mut sink = CollectSink::new();
            p.on_trigger(&miss(l), &mut sink);
            out.extend(sink.requests.iter().map(|r| r.line.raw()));
        }
        out
    }

    fn entry_of(p: &Pangloss, line: u64) -> Entry {
        *p.table[p.ways_of(LineAddr::new(line))]
            .iter()
            .find(|e| e.valid && e.tag == LineAddr::new(line))
            .expect("entry present")
    }

    #[test]
    fn learns_and_walks_the_chain() {
        let mut p = Pangloss::new(tiny());
        run(&mut p, &[1, 2, 3, 1, 2, 3]);
        let mut sink = CollectSink::new();
        p.prev = None; // isolate the prediction from further training
        p.on_trigger(&miss(1), &mut sink);
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(lines, vec![2, 3], "degree-2 chain walk from 1");
        assert!(sink.requests.iter().all(|r| r.delay_trips == 0), "on-chip");
        assert_eq!(sink.meta_read_blocks, 0, "no off-chip metadata reads");
    }

    #[test]
    fn fanout_bound_never_exceeded() {
        let mut p = Pangloss::new(tiny());
        // Train 7 → {101, 102, ..., 110}: far more successors than fanout.
        for t in 101u64..=110 {
            run(&mut p, &[7, t]);
        }
        let entry = entry_of(&p, 7);
        assert_eq!(entry.len as usize, p.cfg.fanout, "fan-out capped");
        // The refcounted target set is capped identically.
        let known = (101u64..=110)
            .filter(|&t| p.knows_line(LineAddr::new(t)))
            .count();
        assert_eq!(known, p.cfg.fanout);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut p = Pangloss::new(tiny());
        for _ in 0..300 {
            run(&mut p, &[7, 8]); // 7 → 8, then the 8 → 7 back-edge
        }
        let entry = entry_of(&p, 7);
        let edge = entry.edges[..entry.len as usize]
            .iter()
            .find(|e| e.line == LineAddr::new(8))
            .expect("edge present");
        assert_eq!(edge.count, u8::MAX, "counter pinned at saturation");
        // Saturated, not wrapped: the edge still wins the prediction.
        p.prev = None;
        let mut sink = CollectSink::new();
        p.on_trigger(&miss(7), &mut sink);
        assert_eq!(sink.requests[0].line, LineAddr::new(8));
    }

    #[test]
    fn victim_selection_evicts_minimum_frequency_edge() {
        let mut p = Pangloss::new(tiny());
        // 7 → 101 three times (strong), 7 → 102 once (weak).
        run(&mut p, &[7, 101, 7, 101, 7, 101, 7, 102]);
        // Fan-out (2) is full; a third successor must evict the weak edge.
        run(&mut p, &[7, 103]);
        assert!(p.knows_line(LineAddr::new(101)), "strong edge survives");
        assert!(!p.knows_line(LineAddr::new(102)), "weak edge evicted");
        assert!(p.knows_line(LineAddr::new(103)), "new edge installed");
        assert_eq!(p.edge_evictions, 1);
    }

    #[test]
    fn victim_ties_break_to_the_oldest_edge() {
        let mut p = Pangloss::new(tiny());
        // Two equal-frequency edges: 7 → 101 then 7 → 102, once each.
        run(&mut p, &[7, 101, 7, 102, 7, 103]);
        assert!(
            !p.knows_line(LineAddr::new(101)),
            "oldest min-count edge goes"
        );
        assert!(p.knows_line(LineAddr::new(102)));
        assert!(p.knows_line(LineAddr::new(103)));
    }

    #[test]
    fn entry_eviction_reports_replacement_and_drops_targets() {
        // One set, one way: every new source evicts the previous entry.
        let mut p = Pangloss::new(PanglossConfig {
            sets: 1,
            ways: 1,
            fanout: 2,
            degree: 1,
        });
        run(&mut p, &[1, 2]); // entry 1 → {2}
        let mut sink = CollectSink::new();
        p.on_trigger(&miss(3), &mut sink); // trains 2 → 3: entry 1 evicted
        assert_eq!(sink.replaced, vec![LineAddr::new(1)]);
        assert!(
            !p.knows_line(LineAddr::new(2)),
            "evicted entry's target gone"
        );
        assert!(p.knows_line(LineAddr::new(3)));
        assert_eq!(p.entry_evictions, 1);
    }

    #[test]
    fn footprint_accounts_slab_and_targets() {
        let mut p = Pangloss::new(tiny());
        let slab = p.cfg.sets * p.cfg.ways * std::mem::size_of::<Entry>();
        assert_eq!(p.footprint_bytes(), slab, "empty table is slab-only");
        run(&mut p, &[1, 2, 3]); // learns targets {2, 3}
        let per_target = std::mem::size_of::<LineAddr>() + std::mem::size_of::<u32>();
        assert_eq!(p.footprint_bytes(), slab + 2 * per_target);
    }

    #[test]
    fn chain_walk_stops_at_loops() {
        let mut p = Pangloss::new(tiny().with_degree(8));
        run(&mut p, &[1, 2, 1, 2, 1, 2]);
        p.prev = None;
        let mut sink = CollectSink::new();
        p.on_trigger(&miss(1), &mut sink);
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(lines, vec![2], "walk must not revisit the trigger line");
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn oversized_fanout_panics() {
        Pangloss::new(PanglossConfig {
            fanout: MAX_FANOUT + 1,
            ..PanglossConfig::default()
        });
    }
}
