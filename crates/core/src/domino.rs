//! The Domino prefetcher (paper §III).
//!
//! Domino acts on **triggering events** — L1-D demand misses and prefetch
//! buffer hits. Its lookup is two-phased:
//!
//! 1. **Miss `t`** (no live stream matches): fetch the EIT row for `t`
//!    (one off-chip round trip). If a super-entry exists, immediately
//!    prefetch the *address field of its most recent entry* — the best
//!    single-address guess — and hold the super-entry as a **candidate**.
//! 2. **Next triggering event `a`**: if the candidate's super-entry has
//!    an entry for `a`, the pair `(t, a)` has identified the right
//!    stream; read the History Table row at that entry's pointer and
//!    replay from there (one more round trip, overlapping execution).
//!    If no entry matches, the candidate is discarded and `a` starts a
//!    fresh EIT lookup.
//!
//! Streams behave as in STMS: up to four active, LRU-managed, prefetch
//! hits advance the MRU stream, a replaced stream's buffered blocks are
//! discarded (paper §III), and the stream-end divergence hint bounds
//! runaway replay. Recording appends every triggering event to the HT
//! (one block write per row of 12) and statistically (12.5 %) updates
//! the EIT — each sampled update costs a row read plus a row write, the
//! fetch-modify-writeback sequence of §III-B ("Recording").

use domino_mem::history::{HistoryTable, ROW_ENTRIES};
use domino_mem::interface::{PrefetchRequest, PrefetchSink, Prefetcher, TriggerEvent, TriggerKind};
use domino_mem::metadata::UpdateSampler;
use domino_mem::streams::{top_up, StreamTable};
use domino_trace::addr::LineAddr;

use crate::config::DominoConfig;
use crate::eit::{Eit, EitEntry};

/// Stream origin: the `(trigger, confirmed-next)` pair that spawned it.
type PairKey = (LineAddr, LineAddr);

/// Upper bound on entries copied into a [`Candidate`]. Inline storage
/// keeps the per-event path allocation-free; the paper's configuration
/// uses three entries per super-entry.
const MAX_CANDIDATE_ENTRIES: usize = 8;

/// A lookup awaiting confirmation by the next triggering event.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// The miss that performed the EIT lookup.
    trigger: LineAddr,
    /// Super-entry contents at lookup time (occupied prefix `..len`).
    entries: [EitEntry; MAX_CANDIDATE_ENTRIES],
    /// Number of valid entries.
    len: u8,
    /// The speculative first prefetch (most recent entry's address).
    issued: Option<LineAddr>,
    /// Stream id tagging the speculative prefetch.
    id: u32,
}

/// The Domino temporal data prefetcher.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Domino {
    cfg: DominoConfig,
    ht: HistoryTable,
    eit: Eit,
    streams: StreamTable<PairKey>,
    candidate: Option<Candidate>,
    sampler: UpdateSampler,
    /// Previous triggering event (for EIT recording).
    prev: Option<LineAddr>,
    next_candidate_id: u32,
    lookups: u64,
    lookup_matches: u64,
    confirmations: u64,
    eit_replacements: u64,
}

/// Candidate stream ids live in their own namespace so they never collide
/// with `StreamTable` ids.
const CANDIDATE_ID_BASE: u32 = 0x4000_0000;

impl Domino {
    /// Creates a Domino prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`DominoConfig::validate`]).
    pub fn new(cfg: DominoConfig) -> Self {
        cfg.validate();
        assert!(
            cfg.eit.entries_per_super <= MAX_CANDIDATE_ENTRIES,
            "entries_per_super exceeds inline candidate storage"
        );
        Domino {
            ht: HistoryTable::new(cfg.ht_entries),
            eit: Eit::new(cfg.eit),
            streams: StreamTable::with_policy(cfg.max_streams, cfg.stream_replacement),
            candidate: None,
            sampler: UpdateSampler::new(cfg.sampling_probability, cfg.seed),
            cfg,
            prev: None,
            next_candidate_id: CANDIDATE_ID_BASE,
            lookups: 0,
            lookup_matches: 0,
            confirmations: 0,
            eit_replacements: 0,
        }
    }

    /// Appends a triggering event to the HT (LogMiss spill per full row).
    fn log(&mut self, line: LineAddr, stream_head: bool, sink: &mut dyn PrefetchSink) -> u64 {
        let pos = self.ht.append(line, stream_head);
        if (pos + 1).is_multiple_of(ROW_ENTRIES as u64) {
            sink.metadata_write(1);
        }
        pos
    }

    /// Statistical EIT recording: `prev → line` observed, `line` logged at
    /// `pos`. A sampled update fetches the EIT row and writes it back.
    fn record(&mut self, prev: LineAddr, line: LineAddr, pos: u64, sink: &mut dyn PrefetchSink) {
        if self.sampler.sample() {
            sink.metadata_read(1);
            if let Some(evicted) = self.eit.update(prev, line, pos) {
                self.eit_replacements += 1;
                sink.metadata_replace(evicted);
            }
            sink.metadata_write(1);
        }
    }

    /// Confirms the candidate against triggering event `line`, creating an
    /// active stream replaying from the matched entry's pointer.
    fn confirm(
        &mut self,
        cand: Candidate,
        entry: EitEntry,
        line: LineAddr,
        was_hit: bool,
        sink: &mut dyn PrefetchSink,
    ) {
        self.confirmations += 1;
        let key = (cand.trigger, entry.addr);
        let (evicted, _id) = self.streams.allocate(entry.pointer + 1, None, key);
        if let Some(dead) = evicted {
            sink.discard_stream(dead.id);
        }
        let s = self.streams.mru_mut().expect("just allocated");
        if was_hit {
            s.consumed = 1; // the speculative first prefetch was useful
        }
        let mut trips = 0u8;
        top_up(
            s,
            &self.ht,
            self.cfg.degree,
            line,
            self.cfg.stream_end_detection,
            &mut trips,
            sink,
        );
        // The speculative prefetch that did not pan out stays in the
        // buffer under the candidate id; if it never hits it is counted an
        // overprediction by the buffer, as in the real design.
        if cand.issued != Some(line) {
            if let Some(_wrong) = cand.issued {
                sink.discard_stream(cand.id);
            }
        }
    }

    /// Performs the single-address EIT lookup for a miss and installs the
    /// resulting candidate (if any).
    fn lookup(&mut self, line: LineAddr, sink: &mut dyn PrefetchSink) {
        sink.metadata_read(1);
        self.lookups += 1;
        let Some(se) = self.eit.lookup(line) else {
            self.candidate = None;
            return;
        };
        self.lookup_matches += 1;
        let src = se.entries();
        let mut entries = [EitEntry {
            addr: LineAddr::default(),
            pointer: 0,
        }; MAX_CANDIDATE_ENTRIES];
        entries[..src.len()].copy_from_slice(src);
        let len = src.len() as u8;
        let id = self.next_candidate_id;
        self.next_candidate_id = CANDIDATE_ID_BASE | (self.next_candidate_id + 1) & 0x3FFF_FFFF;
        let issued = se.most_recent().map(|e| e.addr).filter(|&a| a != line);
        if let Some(addr) = issued {
            // The first prefetch of the stream: one round trip after the
            // miss (the EIT row read), not two as in STMS.
            sink.prefetch(PrefetchRequest {
                line: addr,
                delay_trips: 1,
                stream: Some(id),
            });
        }
        self.candidate = Some(Candidate {
            trigger: line,
            entries,
            len,
            issued,
            id,
        });
    }

    /// `(lookups, matches, confirmations)` diagnostics.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.lookups, self.lookup_matches, self.confirmations)
    }

    /// The EIT (for inspection in analyses/tests).
    pub fn eit(&self) -> &Eit {
        &self.eit
    }
}

impl Prefetcher for Domino {
    fn name(&self) -> &str {
        "Domino"
    }

    fn reserve(&mut self, expected_events: usize) {
        self.ht.reserve(expected_events);
    }

    fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink) {
        let line = event.line;
        let was_hit = event.kind == TriggerKind::PrefetchHit;
        // Phase 1: does this event confirm the pending candidate?
        let candidate = self.candidate.take();
        let confirmed = candidate.as_ref().and_then(|c| {
            c.entries[..c.len as usize]
                .iter()
                .rev()
                .find(|e| e.addr == line)
                .copied()
                .map(|e| (e, *c))
        });
        if let Some((entry, cand)) = confirmed {
            let pos = self.log(line, false, sink);
            self.confirm(cand, entry, line, was_hit, sink);
            if let Some(prev) = self.prev.replace(line) {
                self.record(prev, line, pos, sink);
            }
            return;
        }
        // A dropped candidate's speculative prefetch will rot in the
        // buffer; it is accounted as an overprediction there.
        let _ = candidate;
        // Phase 2: does this event continue an active stream?
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
            if let Some(prev) = self.prev.replace(line) {
                self.record(prev, line, pos, sink);
            }
            return;
        }
        // Phase 3: a miss with no matching stream starts a fresh lookup.
        let head = event.kind == TriggerKind::Miss;
        let pos = self.log(line, head, sink);
        if head {
            self.lookup(line, sink);
        }
        if let Some(prev) = self.prev.replace(line) {
            self.record(prev, line, pos, sink);
        }
    }

    fn emit_counters(&self, sink: &mut dyn domino_telemetry::CounterSink) {
        sink.counter("eit.lookups", self.lookups);
        sink.counter("eit.matches", self.lookup_matches);
        sink.counter("eit.confirmations", self.confirmations);
        sink.counter("eit.replacements", self.eit_replacements);
    }

    fn knows_line(&self, line: LineAddr) -> bool {
        self.eit.probe(line)
    }

    fn footprint_bytes(&self) -> usize {
        self.eit.footprint_bytes() + self.ht.footprint_bytes()
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
            // Replay-length tests drive cold history where every entry is
            // a stream head; the heuristic is tested separately.
            stream_end_detection: false,
            ht_entries: 0,
            eit: crate::eit::EitConfig::unbounded(),
            ..DominoConfig::default()
        }
    }

    fn miss(line: u64) -> TriggerEvent {
        TriggerEvent::miss(Pc::new(0), LineAddr::new(line))
    }

    fn hit(line: u64) -> TriggerEvent {
        TriggerEvent::prefetch_hit(Pc::new(0), LineAddr::new(line))
    }

    fn run(d: &mut Domino, lines: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for &l in lines {
            let mut sink = CollectSink::new();
            d.on_trigger(&miss(l), &mut sink);
            out.extend(sink.requests.iter().map(|r| r.line.raw()));
        }
        out
    }

    #[test]
    fn first_prefetch_after_one_round_trip() {
        let mut d = Domino::new(cfg());
        run(&mut d, &[1, 2, 3, 4, 5]);
        let mut sink = CollectSink::new();
        d.on_trigger(&miss(1), &mut sink);
        assert_eq!(sink.requests.len(), 1, "single speculative prefetch");
        assert_eq!(sink.requests[0].line, LineAddr::new(2));
        assert_eq!(sink.requests[0].delay_trips, 1, "EIT read only");
    }

    #[test]
    fn confirmation_replays_the_stream() {
        let mut d = Domino::new(cfg().with_degree(3));
        run(&mut d, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut sink = CollectSink::new();
        d.on_trigger(&miss(1), &mut sink); // speculative prefetch of 2
        sink.clear();
        d.on_trigger(&hit(2), &mut sink); // confirms (1,2): replay 3,4,5
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(lines, vec![3, 4, 5]);
        assert!(sink.requests.iter().all(|r| r.delay_trips == 1));
    }

    #[test]
    fn two_address_lookup_follows_the_right_stream() {
        // The junction pathology: 7 continues to 101 in one stream, 201
        // in another. Domino's pair confirmation picks the right one even
        // though the speculative first prefetch follows the most recent.
        let mut d = Domino::new(cfg().with_degree(2));
        run(&mut d, &[100, 7, 101, 102, 900, 200, 7, 201, 202, 901]);
        let mut sink = CollectSink::new();
        d.on_trigger(&miss(100), &mut sink);
        // Speculative: most recent continuation of 100 is 7.
        sink.clear();
        d.on_trigger(&hit(7), &mut sink);
        // Pair (100, 7) → replay 101, 102 — not 201.
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert!(lines.contains(&101), "wrong stream chosen: {lines:?}");
        assert!(!lines.contains(&201));
    }

    #[test]
    fn speculative_miss_still_confirms_via_other_entry() {
        // 7 is followed by 101 (older) and 201 (recent). On a miss of 7
        // Domino speculatively prefetches 201; if the demand stream then
        // misses on 101, the candidate still confirms through the older
        // entry and replays the 101-stream.
        let mut d = Domino::new(cfg().with_degree(1));
        run(&mut d, &[7, 101, 102, 900, 7, 201, 202, 901]);
        let mut sink = CollectSink::new();
        d.on_trigger(&miss(7), &mut sink);
        let spec: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(spec, vec![201], "speculation follows most recent");
        sink.clear();
        d.on_trigger(&miss(101), &mut sink);
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(lines, vec![102], "pair (7,101) resumes the older stream");
        // The wrong speculative prefetch is discarded with its stream tag.
        assert!(!sink.discarded_streams.is_empty());
    }

    #[test]
    fn stream_end_detection_limits_cold_replay() {
        let mut c = cfg().with_degree(4);
        c.stream_end_detection = true;
        let mut d = Domino::new(c);
        run(&mut d, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut sink = CollectSink::new();
        d.on_trigger(&miss(1), &mut sink); // speculative prefetch of 2
        sink.clear();
        d.on_trigger(&hit(2), &mut sink);
        // Replay of the confirmed stream stops at the first *run* of two
        // recorded heads: entries 3 and 4 were consecutive demand misses
        // in the producing run, so replay issues them and then stops
        // (degree would otherwise allow four).
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(lines, vec![3, 4]);
    }

    #[test]
    fn unknown_address_is_silent() {
        let mut d = Domino::new(cfg());
        let issued = run(&mut d, &[10, 20, 30, 40]);
        assert!(issued.is_empty());
    }

    #[test]
    fn metadata_traffic_sampled_updates() {
        let mut d = Domino::new(DominoConfig {
            sampling_probability: 0.0,
            ht_entries: 0,
            eit: crate::eit::EitConfig::unbounded(),
            ..DominoConfig::default()
        });
        let mut writes = 0;
        for l in 0..100u64 {
            let mut sink = CollectSink::new();
            d.on_trigger(&miss(l), &mut sink);
            writes += sink.meta_write_blocks;
        }
        // Only LogMiss spills (one per 12 events); no EIT updates at 0 %.
        assert_eq!(writes, 100 / 12);
        // And with no updates ever, no lookup can match.
        let (lookups, matches, _) = d.counters();
        assert!(lookups > 0);
        assert_eq!(matches, 0);
    }

    #[test]
    fn candidate_is_dropped_on_unrelated_miss() {
        let mut d = Domino::new(cfg());
        run(&mut d, &[1, 2, 3, 900, 901]);
        let mut sink = CollectSink::new();
        d.on_trigger(&miss(1), &mut sink); // candidate for 1 (prefetch 2)
        sink.clear();
        d.on_trigger(&miss(555), &mut sink); // unrelated: candidate dies
                                             // 555 has no EIT entry: no prefetches.
        assert!(sink.requests.is_empty());
        sink.clear();
        // A later hit on 2 no longer confirms anything (no candidate),
        // but the block may still be consumed as a plain buffer hit; the
        // prefetcher just logs it.
        d.on_trigger(&hit(2), &mut sink);
        assert!(sink.requests.is_empty());
    }

    #[test]
    fn degree_is_respected() {
        for degree in [1usize, 2, 4, 8] {
            let mut d = Domino::new(cfg().with_degree(degree));
            let seq: Vec<u64> = (1..=40).collect();
            run(&mut d, &seq);
            let mut sink = CollectSink::new();
            d.on_trigger(&miss(1), &mut sink);
            assert!(sink.requests.len() <= 1);
            sink.clear();
            d.on_trigger(&hit(2), &mut sink);
            assert!(
                sink.requests.len() <= degree,
                "degree {degree}: {} requests",
                sink.requests.len()
            );
        }
    }

    #[test]
    fn finite_eit_loses_cold_tags() {
        let mut d = Domino::new(DominoConfig {
            sampling_probability: 1.0,
            ht_entries: 0,
            eit: crate::eit::EitConfig {
                rows: 2,
                super_entries_per_row: 1,
                entries_per_super: 3,
            },
            ..DominoConfig::default()
        });
        // Many distinct tags thrash the tiny EIT.
        let seq: Vec<u64> = (0..64).collect();
        run(&mut d, &seq);
        run(&mut d, &seq);
        let (_, matches, _) = d.counters();
        // With 2 rows x 1 super-entry, almost every tag is evicted before
        // its second occurrence.
        assert!(matches < 16, "expected heavy thrashing, got {matches}");
    }
}
