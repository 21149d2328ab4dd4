//! Digram (Wenisch, *Temporal Memory Streaming*, CMU PhD thesis 2007):
//! STMS with a two-address lookup.
//!
//! Digram's Index Table is keyed by the hash of the **last two** triggering
//! events. Two consecutive misses pin down the right stream far more often
//! than one (paper Figure 3), producing longer streams (Figure 2) — but
//! the prefetcher cannot issue anything for the first two addresses of a
//! stream, and pairs match history less often than single addresses
//! (Figure 4). The paper's trace results (Figure 11) show the two effects
//! cancel: Digram's coverage lands slightly *below* STMS's, which is why
//! the idea was shelved until Domino combined both lookups.

use domino_trace::{FxHashMap, FxHashSet};

use domino_mem::history::{HistoryTable, ROW_ENTRIES};
use domino_mem::interface::{PrefetchSink, Prefetcher, TriggerEvent, TriggerKind};
use domino_mem::metadata::UpdateSampler;
use domino_trace::addr::LineAddr;

use crate::config::TemporalConfig;
use domino_mem::streams::{top_up, StreamTable};

/// Index key: the last two triggering events, oldest first.
type PairKey = (LineAddr, LineAddr);

/// The Digram prefetcher.
#[derive(Debug)]
pub struct Digram {
    cfg: TemporalConfig,
    ht: HistoryTable,
    /// Index Table: (previous, current) → HT position of `current`.
    index: FxHashMap<PairKey, u64>,
    /// Target lines present in the index (observability: answers
    /// `knows_line` without scanning the pair keys).
    known: FxHashSet<LineAddr>,
    streams: StreamTable<PairKey>,
    sampler: UpdateSampler,
    /// The previous triggering event, if any.
    prev: Option<LineAddr>,
    lookups: u64,
    lookup_matches: u64,
}

impl Digram {
    /// Creates a Digram instance.
    pub fn new(cfg: TemporalConfig) -> Self {
        cfg.validate();
        Digram {
            ht: HistoryTable::new(cfg.ht_entries),
            index: FxHashMap::default(),
            known: FxHashSet::default(),
            streams: StreamTable::new(cfg.max_streams),
            sampler: UpdateSampler::new(cfg.sampling_probability, cfg.seed ^ 0xD16),
            cfg,
            prev: None,
            lookups: 0,
            lookup_matches: 0,
        }
    }

    fn log(&mut self, line: LineAddr, stream_head: bool, sink: &mut dyn PrefetchSink) -> u64 {
        let pos = self.ht.append(line, stream_head);
        if (pos + 1).is_multiple_of(ROW_ENTRIES as u64) {
            sink.metadata_write(1);
        }
        pos
    }

    /// Statistical index update for the pair `(prev, line)`.
    fn update_index(
        &mut self,
        prev: Option<LineAddr>,
        line: LineAddr,
        pos: u64,
        sink: &mut dyn PrefetchSink,
    ) {
        let Some(prev) = prev else { return };
        if self.sampler.sample() {
            self.index.insert((prev, line), pos);
            self.known.insert(line);
            sink.metadata_write(1);
        }
    }

    /// Fraction of pair lookups that found a live pointer (Figure 4's
    /// two-address series).
    pub fn lookup_match_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.lookup_matches as f64 / self.lookups as f64
        }
    }
}

impl Prefetcher for Digram {
    fn name(&self) -> &str {
        "Digram"
    }

    fn reserve(&mut self, expected_events: usize) {
        self.ht.reserve(expected_events);
    }

    fn emit_counters(&self, sink: &mut dyn domino_telemetry::CounterSink) {
        sink.counter("index.lookups", self.lookups);
        sink.counter("index.matches", self.lookup_matches);
    }

    fn knows_line(&self, line: LineAddr) -> bool {
        self.known.contains(&line)
    }

    fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ht.footprint_bytes()
            + self.index.len() * (size_of::<PairKey>() + size_of::<u64>())
            + self.known.len() * size_of::<LineAddr>()
    }

    fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink) {
        let line = event.line;
        let mut trips = 0u8;
        let prev = self.prev.replace(line);
        match event.kind {
            TriggerKind::PrefetchHit => {
                let pos = self.log(line, false, sink);
                if self.streams.consume(line).is_some() {
                    let s = self.streams.mru_mut().expect("consume promoted it");
                    top_up(
                        s,
                        &self.ht,
                        self.cfg.degree,
                        line,
                        self.cfg.stream_end_detection,
                        &mut trips,
                        sink,
                    );
                }
                self.update_index(prev, line, pos, sink);
            }
            TriggerKind::Miss => {
                if self.streams.consume(line).is_some() {
                    let pos = self.log(line, false, sink);
                    let s = self.streams.mru_mut().expect("consume promoted it");
                    top_up(
                        s,
                        &self.ht,
                        self.cfg.degree,
                        line,
                        self.cfg.stream_end_detection,
                        &mut trips,
                        sink,
                    );
                    self.update_index(prev, line, pos, sink);
                    return;
                }
                let pos = self.log(line, true, sink);
                let Some(prev) = prev else {
                    return; // very first event: no pair to look up
                };
                let key = (prev, line);
                sink.metadata_read(1);
                trips += 1;
                self.lookups += 1;
                let found = self
                    .index
                    .get(&key)
                    .copied()
                    .filter(|&p| p < pos && self.ht.is_live(p + 1));
                if let Some(prev_pos) = found {
                    self.lookup_matches += 1;
                    let (evicted, _id) = self.streams.allocate(prev_pos + 1, None, key);
                    if let Some(dead) = evicted {
                        sink.discard_stream(dead.id);
                    }
                    let s = self.streams.mru_mut().expect("just allocated");
                    top_up(
                        s,
                        &self.ht,
                        self.cfg.degree,
                        line,
                        self.cfg.stream_end_detection,
                        &mut trips,
                        sink,
                    );
                }
                self.update_index(Some(prev), line, pos, sink);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_mem::interface::CollectSink;
    use domino_trace::addr::Pc;

    fn cfg() -> TemporalConfig {
        TemporalConfig {
            sampling_probability: 1.0,
            stream_end_detection: false,
            ..TemporalConfig::default()
        }
    }

    fn miss(line: u64) -> TriggerEvent {
        TriggerEvent::miss(Pc::new(0), LineAddr::new(line))
    }

    fn run(d: &mut Digram, lines: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for &l in lines {
            let mut sink = CollectSink::new();
            d.on_trigger(&miss(l), &mut sink);
            out.extend(sink.requests.iter().map(|r| r.line.raw()));
        }
        out
    }

    #[test]
    fn needs_two_addresses_before_prefetching() {
        let mut d = Digram::new(cfg().with_degree(2));
        run(&mut d, &[1, 2, 3, 4, 5]);
        // Second pass: the first miss alone cannot trigger anything.
        let mut sink = CollectSink::new();
        d.on_trigger(&miss(1), &mut sink);
        assert!(sink.requests.is_empty(), "one address is not enough");
        // After the second miss the pair (1,2) matches: prefetch 3, 4.
        let mut sink = CollectSink::new();
        d.on_trigger(&miss(2), &mut sink);
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(lines, vec![3, 4]);
        assert!(sink.requests.iter().all(|r| r.delay_trips == 2));
    }

    #[test]
    fn two_address_lookup_disambiguates_junctions() {
        // Streams X=[100,7,101] and Y=[200,7,201]. STMS would follow the
        // most recent occurrence of 7; Digram keys on the pair and follows
        // the right stream.
        let mut d = Digram::new(cfg().with_degree(1));
        run(&mut d, &[100, 7, 101, 900, 200, 7, 201, 901]);
        let mut sink = CollectSink::new();
        d.on_trigger(&miss(100), &mut sink);
        d.on_trigger(&miss(7), &mut sink);
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert!(
            lines.contains(&101),
            "pair (100,7) must resume the first stream: {lines:?}"
        );
        assert!(!lines.contains(&201));
    }

    #[test]
    fn pair_lookup_matches_less_often_than_single() {
        // Random-ish interleavings: the same addresses recur but pairs
        // often do not — Figure 4's effect.
        let mut d = Digram::new(cfg());
        let mut s = crate::stms::Stms::new(cfg());
        let seq: Vec<u64> = (0..400).map(|i| (i * 7919) % 23).collect();
        for &l in &seq {
            d.on_trigger(&miss(l), &mut CollectSink::new());
            s.on_trigger(&miss(l), &mut CollectSink::new());
        }
        assert!(
            d.lookup_match_rate() <= s.lookup_match_rate() + 1e-9,
            "digram {} vs stms {}",
            d.lookup_match_rate(),
            s.lookup_match_rate()
        );
    }

    #[test]
    fn no_prefetch_on_fresh_pairs() {
        let mut d = Digram::new(cfg());
        let issued = run(&mut d, &[1, 2, 3, 1, 3, 2]);
        assert!(issued.is_empty(), "no pair repeats: {issued:?}");
    }
}
