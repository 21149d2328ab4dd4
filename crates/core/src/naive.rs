//! The naive two-index-table Domino (paper §III-A, last paragraph).
//!
//! Before presenting the practical EIT design, the paper sketches the
//! obvious implementation of one-and-two-address lookup: keep *two*
//! Index Tables — one keyed by a single triggering event, one keyed by
//! the pair — plus the History Table. It works, but costs one extra
//! off-chip access per stream (two index reads instead of one) and its
//! first prefetch still waits two round trips, "and as such,
//! significantly wastes precious off-chip bandwidth".
//!
//! [`NaiveDomino`] implements that strawman so the ablation benches can
//! measure exactly what the EIT saves: compare its metadata traffic and
//! `delay_trips` against [`crate::Domino`] at equal coverage.

use domino_trace::FxHashMap;

use domino_mem::history::{HistoryTable, ROW_ENTRIES};
use domino_mem::interface::{PrefetchRequest, PrefetchSink, Prefetcher, TriggerEvent, TriggerKind};
use domino_mem::metadata::UpdateSampler;
use domino_mem::streams::{top_up, StreamTable};
use domino_trace::addr::LineAddr;

use crate::config::DominoConfig;

type PairKey = (LineAddr, LineAddr);

/// The strawman one-and-two-address prefetcher with two Index Tables.
#[derive(Debug)]
pub struct NaiveDomino {
    cfg: DominoConfig,
    ht: HistoryTable,
    /// Single-address IT: line → HT position of its last occurrence.
    single: FxHashMap<LineAddr, u64>,
    /// Pair IT: (prev, line) → HT position of `line`.
    pair: FxHashMap<PairKey, u64>,
    streams: StreamTable<PairKey>,
    sampler: UpdateSampler,
    prev: Option<LineAddr>,
    /// Single-address prediction awaiting the next event.
    speculative: Option<(LineAddr, u32)>,
    next_spec_id: u32,
}

const SPEC_ID_BASE: u32 = 0x2000_0000;

impl NaiveDomino {
    /// Creates the strawman prefetcher. The EIT geometry in `cfg` is
    /// ignored (this design has hash-map index tables).
    pub fn new(cfg: DominoConfig) -> Self {
        cfg.validate();
        NaiveDomino {
            ht: HistoryTable::new(cfg.ht_entries),
            single: FxHashMap::default(),
            pair: FxHashMap::default(),
            streams: StreamTable::new(cfg.max_streams),
            sampler: UpdateSampler::new(cfg.sampling_probability, cfg.seed ^ 0x7A17E),
            cfg,
            prev: None,
            speculative: None,
            next_spec_id: SPEC_ID_BASE,
        }
    }

    fn log(&mut self, line: LineAddr, stream_head: bool, sink: &mut dyn PrefetchSink) -> u64 {
        let pos = self.ht.append(line, stream_head);
        if (pos + 1).is_multiple_of(ROW_ENTRIES as u64) {
            sink.metadata_write(1);
        }
        pos
    }

    /// Sampled updates to both index tables. Each is a row
    /// fetch-modify-writeback, and there are two tables — double the
    /// practical design's update traffic.
    fn record(
        &mut self,
        prev: Option<LineAddr>,
        line: LineAddr,
        pos: u64,
        sink: &mut dyn PrefetchSink,
    ) {
        if self.sampler.sample() {
            sink.metadata_read(1);
            self.single.insert(line, pos);
            sink.metadata_write(1);
            if let Some(p) = prev {
                sink.metadata_read(1);
                self.pair.insert((p, line), pos);
                sink.metadata_write(1);
            }
        }
    }
}

impl Prefetcher for NaiveDomino {
    fn name(&self) -> &str {
        "Domino-Naive"
    }

    fn reserve(&mut self, expected_events: usize) {
        self.ht.reserve(expected_events);
    }

    fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ht.footprint_bytes()
            + self.single.len() * (size_of::<LineAddr>() + size_of::<u64>())
            + self.pair.len() * (size_of::<PairKey>() + size_of::<u64>())
    }

    fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink) {
        let line = event.line;
        let prev = self.prev.replace(line);
        let speculative = self.speculative.take();
        if let Some((spec, id)) = speculative {
            if spec != line {
                sink.discard_stream(id);
            }
        }
        // Stream continuation (hit or late miss).
        if self.streams.consume(line).is_some() {
            let pos = self.log(line, false, sink);
            let mut trips = 0u8;
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
            self.record(prev, line, pos, sink);
            return;
        }
        if event.kind != TriggerKind::Miss {
            let pos = self.log(line, false, sink);
            self.record(prev, line, pos, sink);
            return;
        }
        let pos = self.log(line, true, sink);
        // Two-address lookup first: one IT read + (on match) one HT read.
        let mut trips = 1u8;
        sink.metadata_read(1);
        let pair_hit = prev.and_then(|p| {
            let key = (p, line);
            self.pair
                .get(&key)
                .copied()
                .filter(|&q| q < pos && self.ht.is_live(q + 1))
                .map(|q| (key, q))
        });
        if let Some((key, q)) = pair_hit {
            let (evicted, _) = self.streams.allocate(q + 1, None, key);
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
        } else {
            // Fall back to the single-address IT: a SECOND index read —
            // the extra off-chip access the practical design eliminates.
            sink.metadata_read(1);
            trips += 1;
            if let Some(&p) = self.single.get(&line) {
                if self.ht.is_live(p + 1) {
                    if let Some(next) = self.ht.get(p + 1) {
                        if next.line != line {
                            // One HT read to obtain the successor.
                            sink.metadata_read(1);
                            trips += 1;
                            let id = self.next_spec_id;
                            self.next_spec_id =
                                SPEC_ID_BASE | (self.next_spec_id + 1) & 0x1FFF_FFFF;
                            sink.prefetch(PrefetchRequest {
                                line: next.line,
                                delay_trips: trips,
                                stream: Some(id),
                            });
                            self.speculative = Some((next.line, id));
                        }
                    }
                }
            }
        }
        self.record(prev, line, pos, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_mem::interface::CollectSink;
    use domino_trace::addr::Pc;

    fn cfg() -> DominoConfig {
        DominoConfig {
            sampling_probability: 1.0,
            stream_end_detection: false,
            ht_entries: 0,
            eit: crate::eit::EitConfig::unbounded(),
            ..DominoConfig::default()
        }
    }

    fn miss(line: u64) -> TriggerEvent {
        TriggerEvent::miss(Pc::new(0), LineAddr::new(line))
    }

    fn run(d: &mut NaiveDomino, lines: &[u64]) -> Vec<(u64, u8)> {
        let mut out = Vec::new();
        for &l in lines {
            let mut sink = CollectSink::new();
            d.on_trigger(&miss(l), &mut sink);
            out.extend(sink.requests.iter().map(|r| (r.line.raw(), r.delay_trips)));
        }
        out
    }

    #[test]
    fn pair_match_replays_stream() {
        let mut d = NaiveDomino::new(cfg().with_degree(2));
        run(&mut d, &[1, 2, 3, 4, 5]);
        let issued = run(&mut d, &[1, 2]);
        let lines: Vec<u64> = issued.iter().map(|&(l, _)| l).collect();
        assert!(lines.contains(&3), "pair (1,2) must replay: {lines:?}");
    }

    #[test]
    fn single_fallback_costs_three_trips() {
        let mut d = NaiveDomino::new(cfg().with_degree(1));
        run(&mut d, &[1, 2, 3, 4, 5]);
        // Fresh miss on 1 (pair (5,1) unknown): falls back to the single
        // IT, paying pair-IT read + single-IT read + HT read.
        let issued = run(&mut d, &[1]);
        assert_eq!(issued.len(), 1);
        assert_eq!(issued[0].0, 2);
        assert_eq!(issued[0].1, 3, "two index reads + one history read");
    }

    #[test]
    fn costs_more_metadata_reads_than_practical_domino() {
        use crate::{Domino, DominoConfig};
        let seq: Vec<u64> = (0..200).map(|i| (i * 13) % 50).collect();
        let mut naive_reads = 0;
        let mut practical_reads = 0;
        let mut n = NaiveDomino::new(cfg());
        let mut p = Domino::new(DominoConfig {
            sampling_probability: 1.0,
            ht_entries: 0,
            eit: crate::eit::EitConfig::unbounded(),
            ..DominoConfig::default()
        });
        for &l in &seq {
            let mut sink = CollectSink::new();
            n.on_trigger(&miss(l), &mut sink);
            naive_reads += sink.meta_read_blocks;
            let mut sink = CollectSink::new();
            p.on_trigger(&miss(l), &mut sink);
            practical_reads += sink.meta_read_blocks;
        }
        assert!(
            naive_reads > practical_reads,
            "naive {naive_reads} vs practical {practical_reads}"
        );
    }
}
