//! Triangel (Ainsworth & Mukhanov, ISCA 2024 / arXiv 2406.10627) — an
//! on-chip temporal prefetcher that *filters* before it trains: a small
//! sampler measures, per load PC, whether that PC's misses actually recur
//! and over how long a window, and only PCs that prove useful are allowed
//! to occupy the Markov-style history table or trigger prefetches.
//!
//! Three structures, all fixed slabs:
//!
//! * a **sampler**: set-associative cache of recently sampled miss lines
//!   tagged with the missing PC and an event timestamp. A re-miss on a
//!   sampled line is a *reuse* observation for its PC; a long gap between
//!   the two visits additionally marks the reuse *timely* (there was room
//!   to prefetch ahead).
//! * **per-PC stats**: saturating `sampled / reused / timely` counters
//!   driving two decisions — train-and-prefetch at all (reused count must
//!   reach the usefulness threshold) and how deep (the full configured
//!   degree only once the timely count passes the timeliness threshold;
//!   degree 1 otherwise).
//! * a **history table**: set-associative line → next-line Markov store
//!   with per-entry confidence, populated only by useful PCs, walked
//!   chain-style on a trigger exactly like [`crate::pangloss`].
//!
//! Against Domino this rival shows what sampler-driven filtering buys
//! (a far smaller on-chip budget holds only transitions that pay) and
//! what it costs (cold PCs must prove themselves before they get any
//! coverage at all).

use domino_mem::interface::{PrefetchRequest, PrefetchSink, Prefetcher, TriggerEvent, TriggerKind};
use domino_trace::addr::{LineAddr, Pc};
use domino_trace::FxHashMap;

/// Hard cap on the chain-walk depth (fixed-width dedup scratch).
pub const MAX_DEGREE: usize = 64;

/// Triangel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriangelConfig {
    /// History-table sets.
    pub hist_sets: usize,
    /// History entries per set.
    pub hist_ways: usize,
    /// Sampler sets.
    pub sampler_sets: usize,
    /// Sampler entries per set.
    pub sampler_ways: usize,
    /// Maximum distinct PCs tracked (stats table bound).
    pub max_pcs: usize,
    /// Usefulness threshold: a PC trains and prefetches only once its
    /// reuse count reaches this value.
    pub train_threshold: u8,
    /// Timeliness threshold: a PC prefetches at the full degree only once
    /// its timely-reuse count reaches this value.
    pub deep_threshold: u8,
    /// Minimum trigger-count gap between sampler visits for a reuse to
    /// count as timely (a deep prefetch issued at the first visit would
    /// have had time to land).
    pub timely_distance: u64,
    /// Full chain-walk depth for deep PCs (≤ [`MAX_DEGREE`]); shallow PCs
    /// use degree 1.
    pub degree: usize,
    /// Sampling rate as a power of two: 1-in-2^`sample_shift` lines enter
    /// the sampler (0 samples everything, for tests and tiny models).
    pub sample_shift: u32,
}

impl Default for TriangelConfig {
    fn default() -> Self {
        // 8192 × 4 = 32K history entries ≈ 1 MiB of modelled SRAM — the
        // paper's L2-slice budget, and roughly the on-chip budget Domino
        // spends on its stream buffers and EIT row cache (Domino's actual
        // tables are off-chip and ~200× larger; see DESIGN.md).
        TriangelConfig {
            hist_sets: 8192,
            hist_ways: 4,
            sampler_sets: 64,
            sampler_ways: 4,
            max_pcs: 4096,
            train_threshold: 2,
            deep_threshold: 4,
            timely_distance: 16,
            degree: 4,
            sample_shift: 3,
        }
    }
}

impl TriangelConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero capacities or caps above the slab widths.
    pub fn validate(&self) {
        assert!(
            self.hist_sets > 0 && self.hist_ways > 0,
            "history needs capacity"
        );
        assert!(
            self.sampler_sets > 0 && self.sampler_ways > 0,
            "sampler needs capacity"
        );
        assert!(self.max_pcs > 0, "need at least one tracked PC");
        assert!(
            self.train_threshold > 0,
            "usefulness threshold must be positive"
        );
        assert!(
            self.degree > 0 && self.degree <= MAX_DEGREE,
            "degree must be in 1..={MAX_DEGREE}"
        );
        assert!(self.sample_shift < 64, "sample_shift must leave hash bits");
    }

    /// Returns the config with the given (deep) prefetch degree.
    pub fn with_degree(mut self, degree: usize) -> Self {
        self.degree = degree;
        self
    }
}

/// One history entry: `tag → next` with a saturating confidence.
#[derive(Debug, Clone, Copy)]
struct HistEntry {
    tag: LineAddr,
    next: LineAddr,
    conf: u8,
    valid: bool,
}

const EMPTY_HIST: HistEntry = HistEntry {
    tag: LineAddr::new(0),
    next: LineAddr::new(0),
    conf: 0,
    valid: false,
};

/// One sampler entry: a sampled miss line, its PC, and when it was seen.
#[derive(Debug, Clone, Copy)]
struct SampleEntry {
    line: LineAddr,
    pc: Pc,
    stamp: u64,
    valid: bool,
}

const EMPTY_SAMPLE: SampleEntry = SampleEntry {
    line: LineAddr::new(0),
    pc: Pc::new(0),
    stamp: 0,
    valid: false,
};

/// Per-PC usefulness statistics (all saturating).
#[derive(Debug, Clone, Copy, Default)]
struct PcStats {
    sampled: u8,
    reused: u8,
    timely: u8,
}

/// The Triangel prefetcher.
///
/// ```
/// use domino_mem::{CollectSink, Prefetcher, TriggerEvent};
/// use domino_prefetchers::{Triangel, TriangelConfig};
/// use domino_trace::addr::{LineAddr, Pc};
///
/// let mut t = Triangel::new(TriangelConfig::default());
/// let mut sink = CollectSink::new();
/// // A cold PC has not proved useful: nothing trains, nothing issues.
/// t.on_trigger(&TriggerEvent::miss(Pc::new(1), LineAddr::new(10)), &mut sink);
/// assert!(sink.requests.is_empty());
/// ```
#[derive(Debug)]
pub struct Triangel {
    cfg: TriangelConfig,
    /// History slab, `hist_sets * hist_ways`, allocated at construction.
    history: Vec<HistEntry>,
    /// Sampler slab, `sampler_sets * sampler_ways`.
    sampler: Vec<SampleEntry>,
    /// Per-PC stats, bounded by `max_pcs` (new PCs are ignored when full).
    pc_stats: FxHashMap<Pc, PcStats>,
    /// Refcounts of lines recorded as a history `next` (O(1) `knows_line`).
    targets: FxHashMap<LineAddr, u32>,
    /// Previous trigger (chain context): line and its PC.
    prev: Option<(LineAddr, Pc)>,
    /// Trigger counter — the sampler's clock.
    now: u64,
    samples: u64,
    reuses: u64,
    trains: u64,
    predictions: u64,
    entry_evictions: u64,
}

impl Triangel {
    /// Creates a Triangel prefetcher; allocates both slabs up front.
    pub fn new(cfg: TriangelConfig) -> Self {
        cfg.validate();
        Triangel {
            history: vec![EMPTY_HIST; cfg.hist_sets * cfg.hist_ways],
            sampler: vec![EMPTY_SAMPLE; cfg.sampler_sets * cfg.sampler_ways],
            pc_stats: FxHashMap::default(),
            targets: FxHashMap::default(),
            prev: None,
            now: 0,
            cfg,
            samples: 0,
            reuses: 0,
            trains: 0,
            predictions: 0,
            entry_evictions: 0,
        }
    }

    fn hist_ways_of(&self, line: LineAddr) -> std::ops::Range<usize> {
        let base = (line.raw() % self.cfg.hist_sets as u64) as usize * self.cfg.hist_ways;
        base..base + self.cfg.hist_ways
    }

    fn sampler_ways_of(&self, line: LineAddr) -> std::ops::Range<usize> {
        let base = (line.raw() % self.cfg.sampler_sets as u64) as usize * self.cfg.sampler_ways;
        base..base + self.cfg.sampler_ways
    }

    /// Whether `line` is in the sampled subset of the miss stream.
    fn sampled(&self, line: LineAddr) -> bool {
        self.cfg.sample_shift == 0
            || line.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.cfg.sample_shift) == 0
    }

    fn target_inc(&mut self, line: LineAddr) {
        *self.targets.entry(line).or_insert(0) += 1;
    }

    fn target_dec(&mut self, line: LineAddr) {
        let count = self
            .targets
            .get_mut(&line)
            .expect("history targets are refcounted in lockstep with the slab");
        *count -= 1;
        if *count == 0 {
            self.targets.remove(&line);
        }
    }

    /// Whether `pc` has proved useful enough to train and prefetch.
    fn is_useful(&self, pc: Pc) -> bool {
        let Some(stats) = self.pc_stats.get(&pc) else {
            return false;
        };
        // Injected bug for the checker self-test: `>` instead of `>=`
        // silently raises the usefulness threshold by one, so PCs sitting
        // exactly at the threshold never train.
        #[cfg(domino_mutate)]
        if crate::mutate_active("triangel_sampler_off_by_one") {
            return stats.reused > self.cfg.train_threshold;
        }
        stats.reused >= self.cfg.train_threshold
    }

    /// Chain-walk depth for `pc`: full degree once timely, else 1.
    fn depth_for(&self, pc: Pc) -> usize {
        let deep = self
            .pc_stats
            .get(&pc)
            .is_some_and(|s| s.timely >= self.cfg.deep_threshold);
        if deep {
            self.cfg.degree
        } else {
            1
        }
    }

    /// Feeds a sampled demand miss through the sampler, updating the
    /// missing PC's reuse/timeliness stats.
    fn sample(&mut self, line: LineAddr, pc: Pc) {
        let ways = self.sampler_ways_of(line);
        if let Some(slot) = self.sampler[ways.clone()]
            .iter()
            .position(|e| e.valid && e.line == line)
        {
            let idx = ways.start + slot;
            let entry = self.sampler[idx];
            if entry.pc == pc {
                // The same PC missed this line again: a reuse, and a
                // timely one if the visits are far enough apart.
                let timely = self.now - entry.stamp >= self.cfg.timely_distance;
                if let Some(stats) = self.stats_mut(pc) {
                    stats.reused = stats.reused.saturating_add(1);
                    if timely {
                        stats.timely = stats.timely.saturating_add(1);
                    }
                }
                self.reuses += 1;
            } else if let Some(stats) = self.stats_mut(pc) {
                // A different PC took over the line: fresh observation.
                stats.sampled = stats.sampled.saturating_add(1);
            }
            self.sampler[idx].pc = pc;
            self.sampler[idx].stamp = self.now;
        } else {
            // Insert; victim is an invalid way, else the oldest stamp
            // (ties to the lowest way).
            let mut victim = ways.start;
            for idx in ways.clone() {
                if !self.sampler[idx].valid {
                    victim = idx;
                    break;
                }
                if self.sampler[idx].stamp < self.sampler[victim].stamp {
                    victim = idx;
                }
            }
            self.sampler[victim] = SampleEntry {
                line,
                pc,
                stamp: self.now,
                valid: true,
            };
            if let Some(stats) = self.stats_mut(pc) {
                stats.sampled = stats.sampled.saturating_add(1);
            }
            self.samples += 1;
        }
    }

    /// Mutable stats for `pc`, honouring the `max_pcs` bound.
    fn stats_mut(&mut self, pc: Pc) -> Option<&mut PcStats> {
        if !self.pc_stats.contains_key(&pc) && self.pc_stats.len() >= self.cfg.max_pcs {
            return None;
        }
        Some(self.pc_stats.entry(pc).or_default())
    }

    /// Records the transition `from → to` in the history table.
    fn train(&mut self, from: LineAddr, to: LineAddr, sink: &mut dyn PrefetchSink) {
        self.trains += 1;
        let ways = self.hist_ways_of(from);
        if let Some(slot) = self.history[ways.clone()]
            .iter()
            .position(|e| e.valid && e.tag == from)
        {
            let idx = ways.start + slot;
            if self.history[idx].next == to {
                self.history[idx].conf = self.history[idx].conf.saturating_add(1);
            } else if self.history[idx].conf > 1 {
                // Disagreement: decay confidence before flipping.
                self.history[idx].conf -= 1;
            } else {
                let old = self.history[idx].next;
                self.history[idx].next = to;
                self.history[idx].conf = 1;
                self.target_dec(old);
                self.target_inc(to);
            }
        } else {
            // Allocate; victim is an invalid way, else minimum confidence
            // (ties to the lowest way).
            let mut victim = ways.start;
            let mut found_invalid = false;
            for idx in ways.clone() {
                if !self.history[idx].valid {
                    victim = idx;
                    found_invalid = true;
                    break;
                }
            }
            if !found_invalid {
                for idx in ways.clone().skip(1) {
                    if self.history[idx].conf < self.history[victim].conf {
                        victim = idx;
                    }
                }
                let evicted = self.history[victim];
                self.target_dec(evicted.next);
                sink.metadata_replace(evicted.tag);
                self.entry_evictions += 1;
            }
            self.history[victim] = HistEntry {
                tag: from,
                next: to,
                conf: 1,
                valid: true,
            };
            self.target_inc(to);
        }
    }

    fn lookup(&self, line: LineAddr) -> Option<LineAddr> {
        self.history[self.hist_ways_of(line)]
            .iter()
            .find(|e| e.valid && e.tag == line)
            .map(|e| e.next)
    }

    /// Walks the history chain from `line` to `depth` steps.
    fn predict(&mut self, line: LineAddr, depth: usize, sink: &mut dyn PrefetchSink) {
        let mut issued = [LineAddr::new(0); MAX_DEGREE];
        let mut n = 0usize;
        let mut cur = line;
        while n < depth {
            let Some(next) = self.lookup(cur) else {
                break;
            };
            if next == line || issued[..n].contains(&next) {
                break;
            }
            sink.prefetch(PrefetchRequest::immediate(next));
            self.predictions += 1;
            issued[n] = next;
            n += 1;
            cur = next;
        }
    }
}

impl Prefetcher for Triangel {
    fn name(&self) -> &str {
        "Triangel"
    }

    fn reserve(&mut self, expected_events: usize) {
        // Capacity-only: pre-size both maps up to their hard bounds.
        let targets_cap = expected_events.min(self.cfg.hist_sets * self.cfg.hist_ways);
        self.targets
            .reserve(targets_cap.saturating_sub(self.targets.len()));
        let pcs_cap = expected_events.min(self.cfg.max_pcs);
        self.pc_stats
            .reserve(pcs_cap.saturating_sub(self.pc_stats.len()));
    }

    fn emit_counters(&self, sink: &mut dyn domino_telemetry::CounterSink) {
        sink.counter("triangel.samples", self.samples);
        sink.counter("triangel.reuses", self.reuses);
        sink.counter("triangel.trains", self.trains);
        sink.counter("triangel.predictions", self.predictions);
        sink.counter("triangel.entry_evictions", self.entry_evictions);
    }

    fn knows_line(&self, line: LineAddr) -> bool {
        self.targets.contains_key(&line)
    }

    fn footprint_bytes(&self) -> usize {
        self.history.len() * std::mem::size_of::<HistEntry>()
            + self.sampler.len() * std::mem::size_of::<SampleEntry>()
            + self.pc_stats.len() * (std::mem::size_of::<Pc>() + std::mem::size_of::<PcStats>())
            + self.targets.len() * (std::mem::size_of::<LineAddr>() + std::mem::size_of::<u32>())
    }

    fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink) {
        let (line, pc) = (event.line, event.pc);
        self.now += 1;
        // The sampler watches the *demand miss* stream only: prefetch
        // hits are misses the history already covers, and feeding them
        // back would double-count usefulness.
        if event.kind == TriggerKind::Miss && self.sampled(line) {
            self.sample(line, pc);
        }
        // Train the previous transition only if its PC proved useful.
        if let Some((prev_line, prev_pc)) = self.prev.replace((line, pc)) {
            if prev_line != line && self.is_useful(prev_pc) {
                self.train(prev_line, line, sink);
            }
        }
        if self.is_useful(pc) {
            let depth = self.depth_for(pc).min(self.cfg.degree);
            self.predict(line, depth, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_mem::interface::CollectSink;

    /// Tiny deterministic config: samples everything, trains after one
    /// reuse, deepens after one timely reuse.
    fn tiny() -> TriangelConfig {
        TriangelConfig {
            hist_sets: 8,
            hist_ways: 2,
            sampler_sets: 4,
            sampler_ways: 2,
            max_pcs: 8,
            train_threshold: 1,
            deep_threshold: 1,
            timely_distance: 1000, // effectively never timely
            degree: 3,
            sample_shift: 0,
        }
    }

    fn miss_at(pc: u64, line: u64) -> TriggerEvent {
        TriggerEvent::miss(Pc::new(pc), LineAddr::new(line))
    }

    fn run(t: &mut Triangel, pc: u64, lines: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for &l in lines {
            let mut sink = CollectSink::new();
            t.on_trigger(&miss_at(pc, l), &mut sink);
            out.extend(sink.requests.iter().map(|r| r.line.raw()));
        }
        out
    }

    /// Establishes PC 1 as useful (one sampler reuse on line 900) and
    /// trains the chain 1 → 2 → 3 → 4.
    fn warmed() -> Triangel {
        let mut t = Triangel::new(tiny());
        run(&mut t, 1, &[900, 7, 900]); // reuse on 900: PC 1 is useful
        run(&mut t, 1, &[1, 2, 3, 4]);
        t
    }

    #[test]
    fn pc_below_usefulness_threshold_never_trains() {
        let mut t = Triangel::new(TriangelConfig {
            train_threshold: 2,
            ..tiny()
        });
        // One reuse only (every other line is distinct): PC 1 sits below
        // the threshold of 2 for the whole run.
        let issued = run(&mut t, 1, &[900, 7, 900, 10, 11, 12, 13, 14, 15]);
        assert!(issued.is_empty(), "below-threshold PC must not prefetch");
        assert_eq!(t.trains, 0, "below-threshold PC must not train");
        for l in [10u64, 11, 12, 13, 14, 15] {
            assert!(!t.knows_line(LineAddr::new(l)), "history must stay empty");
        }
    }

    #[test]
    fn useful_pc_trains_and_prefetches() {
        let mut t = warmed();
        assert!(t.trains > 0);
        let mut sink = CollectSink::new();
        t.prev = None; // isolate prediction from further training
        t.on_trigger(&miss_at(1, 1), &mut sink);
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(lines, vec![2], "untimely PC walks one step only");
        assert!(sink.requests.iter().all(|r| r.delay_trips == 0), "on-chip");
    }

    #[test]
    fn degree_deepens_only_past_timeliness_threshold() {
        // Same warmup, but reuses now count as timely (distance ≥ 1).
        let mut t = Triangel::new(TriangelConfig {
            timely_distance: 1,
            ..tiny()
        });
        run(&mut t, 1, &[900, 7, 900]);
        run(&mut t, 1, &[1, 2, 3, 4]);
        t.prev = None;
        let mut sink = CollectSink::new();
        t.on_trigger(&miss_at(1, 1), &mut sink);
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(lines, vec![2, 3, 4], "timely PC walks the full degree");

        // Control: the untimely instance stays at depth 1 (see
        // `useful_pc_trains_and_prefetches`), so the deepening is
        // attributable to the timeliness counter alone.
        let untimely = warmed();
        assert_eq!(untimely.depth_for(Pc::new(1)), 1);
        assert_eq!(t.depth_for(Pc::new(1)), t.cfg.degree);
    }

    #[test]
    fn sampler_reuse_requires_matching_pc() {
        let mut t = Triangel::new(tiny());
        run(&mut t, 1, &[900]);
        run(&mut t, 2, &[900]); // different PC re-missing: not a reuse
        assert_eq!(t.reuses, 0);
        assert!(!t.is_useful(Pc::new(1)));
        assert!(!t.is_useful(Pc::new(2)));
    }

    #[test]
    fn history_eviction_reports_replacement_and_drops_targets() {
        let mut t = Triangel::new(TriangelConfig {
            hist_sets: 1,
            hist_ways: 1,
            ..tiny()
        });
        // PC 1 turns useful on the second 900, so the single-entry table
        // then churns through 7→900, 900→1, 1→2, evicting each time.
        run(&mut t, 1, &[900, 7, 900]);
        run(&mut t, 1, &[1, 2]);
        let evictions_before = t.entry_evictions;
        let mut sink = CollectSink::new();
        t.on_trigger(&miss_at(1, 3), &mut sink); // trains 2 → 3: evicts 1 → 2
        assert_eq!(sink.replaced, vec![LineAddr::new(1)]);
        assert!(!t.knows_line(LineAddr::new(2)));
        assert!(t.knows_line(LineAddr::new(3)));
        assert_eq!(t.entry_evictions, evictions_before + 1);
    }

    #[test]
    fn footprint_accounts_slabs_and_maps() {
        let mut t = Triangel::new(tiny());
        let slabs = t.history.len() * std::mem::size_of::<HistEntry>()
            + t.sampler.len() * std::mem::size_of::<SampleEntry>();
        assert_eq!(t.footprint_bytes(), slabs, "cold tables are slab-only");
        // One PC tracked; trains 7→900, 900→1 and 1→2: targets {900, 1, 2}.
        run(&mut t, 1, &[900, 7, 900, 1, 2]);
        let per_pc = std::mem::size_of::<Pc>() + std::mem::size_of::<PcStats>();
        let per_target = std::mem::size_of::<LineAddr>() + std::mem::size_of::<u32>();
        assert_eq!(t.footprint_bytes(), slabs + per_pc + 3 * per_target);
    }

    #[test]
    fn max_pcs_bounds_the_stats_table() {
        let mut t = Triangel::new(TriangelConfig {
            max_pcs: 2,
            ..tiny()
        });
        for pc in 1..=5u64 {
            run(&mut t, pc, &[pc * 100]);
        }
        assert_eq!(t.pc_stats.len(), 2, "stats table must stop at max_pcs");
    }

    #[test]
    fn prefetch_hits_do_not_feed_the_sampler() {
        let mut t = Triangel::new(tiny());
        let mut sink = CollectSink::new();
        t.on_trigger(
            &TriggerEvent::prefetch_hit(Pc::new(1), LineAddr::new(900)),
            &mut sink,
        );
        t.on_trigger(
            &TriggerEvent::prefetch_hit(Pc::new(1), LineAddr::new(900)),
            &mut sink,
        );
        assert_eq!(t.samples, 0);
        assert_eq!(t.reuses, 0);
    }
}
