//! The small prefetch buffer next to the L1-D cache.
//!
//! The paper's methodology (§IV-D): "all prefetchers prefetch into a small
//! prefetch buffer near the L1-D cache with the capacity of 32 cache
//! blocks". Prefetched blocks that are evicted (or discarded with their
//! stream) before any demand hit are the paper's **overpredictions**.
//!
//! Entries carry an arrival timestamp so the timing model can distinguish
//! *timely* hits (block already arrived) from *partial* hits (block still
//! in flight; the demand access waits the residual latency).
//!
//! Every L1 miss probes the buffer and most probes miss, so a counting
//! filter sits in front of the entry scan: one count per hash bucket of
//! the buffered lines, about eight buckets per slot. A line whose bucket
//! count is zero is not buffered, and [`PrefetchBuffer::take`],
//! [`PrefetchBuffer::insert`] and [`PrefetchBuffer::contains`] answer it
//! without walking the entries. The filter only decides whether to scan,
//! never what a scan finds, so entry order, outcomes and statistics are
//! those of the plain scan.

use std::collections::VecDeque;

use domino_telemetry::CounterSink;
use domino_trace::addr::LineAddr;

/// One buffered prefetch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferedPrefetch {
    /// Prefetched line.
    pub line: LineAddr,
    /// Simulated time (ns) at which the data arrives from memory.
    pub ready_at: f64,
    /// Stream that issued the prefetch (for stream-replacement discards).
    pub stream: Option<u32>,
}

/// Lifetime accounting for the buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchBufferStats {
    /// Prefetches inserted.
    pub inserted: u64,
    /// Demand hits (useful prefetches).
    pub hits: u64,
    /// Entries evicted by capacity pressure before any use.
    pub evicted_unused: u64,
    /// Entries discarded when their stream was replaced.
    pub discarded_unused: u64,
    /// Inserts that were dropped because the line was already buffered.
    pub duplicate_inserts: u64,
}

impl PrefetchBufferStats {
    /// All prefetched-but-never-used blocks — the overprediction count.
    pub fn overpredictions(&self) -> u64 {
        self.evicted_unused + self.discarded_unused
    }
}

/// What [`PrefetchBuffer::insert`] did with the request, so callers
/// (e.g. the flight recorder) can attribute the block's fate without
/// re-deriving buffer policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InsertOutcome {
    /// The line was buffered.
    Inserted,
    /// The line was already buffered; the insert was dropped.
    Duplicate,
    /// The line was buffered after evicting this LRU victim unused.
    Evicted(BufferedPrefetch),
}

/// Filter buckets per buffer slot (rounded up to a power of two in all).
const FILTER_BUCKETS_PER_SLOT: usize = 8;

/// Fibonacci multiplier for the filter's line hash.
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The filter bucket of `line` under `mask` (bucket count minus one).
/// Bits 32 and up of a multiplicative hash: consecutive lines and
/// large power-of-two strides both spread over the buckets.
#[inline]
fn bucket(line: LineAddr, mask: usize) -> usize {
    (line.raw().wrapping_mul(HASH_MUL) >> 32) as usize & mask
}

/// LRU prefetch buffer with a fixed capacity in cache blocks.
///
/// ```
/// use domino_mem::prefetch_buffer::PrefetchBuffer;
/// use domino_trace::addr::LineAddr;
///
/// let mut buf = PrefetchBuffer::new(32);
/// buf.insert(LineAddr::new(7), 0.0, None);
/// assert!(buf.take(LineAddr::new(7)).is_some());
/// assert!(buf.take(LineAddr::new(7)).is_none(), "hit consumes the entry");
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchBuffer {
    capacity: usize,
    /// Front = LRU victim end; back = most recent.
    entries: VecDeque<BufferedPrefetch>,
    /// Counting filter: `counts[bucket(line)]` is the number of entries
    /// whose line falls in that bucket. Zero proves a line absent.
    counts: Vec<u16>,
    /// Bucket count minus one (the count is a power of two).
    mask: usize,
    stats: PrefetchBufferStats,
}

impl PrefetchBuffer {
    /// Creates a buffer holding up to `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds `u16::MAX`.
    pub fn new(capacity: usize) -> Self {
        let buckets = capacity
            .saturating_mul(FILTER_BUCKETS_PER_SLOT)
            .next_power_of_two();
        PrefetchBuffer::with_filter_buckets(capacity, buckets)
    }

    /// A buffer whose counting filter has `buckets` counts, a power of
    /// two. Fewer buckets only mean more scans that find nothing; results
    /// never depend on the bucket count, which the tests check with one
    /// and two buckets.
    fn with_filter_buckets(capacity: usize, buckets: usize) -> Self {
        assert!(capacity > 0, "prefetch buffer needs capacity");
        assert!(
            u16::try_from(capacity).is_ok(),
            "prefetch buffer capacity {capacity} exceeds the filter's u16 counts"
        );
        debug_assert!(buckets.is_power_of_two());
        PrefetchBuffer {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            counts: vec![0; buckets],
            mask: buckets - 1,
            stats: PrefetchBufferStats::default(),
        }
    }

    /// The paper's configuration: 32 blocks.
    pub fn paper() -> Self {
        PrefetchBuffer::new(32)
    }

    /// Inserts a prefetched line arriving at `ready_at`. Duplicate lines
    /// are dropped (counted), full buffers evict the LRU entry (counted as
    /// an unused eviction — it was never hit). The returned
    /// [`InsertOutcome`] reports which of the three happened.
    pub fn insert(&mut self, line: LineAddr, ready_at: f64, stream: Option<u32>) -> InsertOutcome {
        self.stats.inserted += 1;
        if self.contains(line) {
            self.stats.duplicate_inserts += 1;
            return InsertOutcome::Duplicate;
        }
        // Injected bug for the checker self-test: a capacity eviction
        // happens but is never counted, silently deflating the
        // overprediction statistics.
        #[cfg(domino_mutate)]
        let count_eviction = !domino_telemetry::mutate_active("buffer_missing_evict_count");
        #[cfg(not(domino_mutate))]
        let count_eviction = true;
        let victim = if self.entries.len() == self.capacity {
            let v = self.entries.pop_front();
            if let Some(v) = v {
                self.counts[bucket(v.line, self.mask)] -= 1;
            }
            if count_eviction {
                self.stats.evicted_unused += 1;
            }
            v
        } else {
            None
        };
        self.entries.push_back(BufferedPrefetch {
            line,
            ready_at,
            stream,
        });
        self.counts[bucket(line, self.mask)] += 1;
        match victim {
            Some(v) => InsertOutcome::Evicted(v),
            None => InsertOutcome::Inserted,
        }
    }

    /// Demand lookup: on hit, removes and returns the entry (the block
    /// moves into the L1) and counts a useful prefetch.
    pub fn take(&mut self, line: LineAddr) -> Option<BufferedPrefetch> {
        let b = bucket(line, self.mask);
        if self.counts[b] == 0 {
            return None;
        }
        let pos = self.entries.iter().position(|e| e.line == line)?;
        self.stats.hits += 1;
        // Injected bug for the checker self-test: the hit is counted but
        // the entry stays resident, so it can be hit or evicted again.
        #[cfg(domino_mutate)]
        if domino_telemetry::mutate_active("buffer_sticky_take") {
            return self.entries.get(pos).copied();
        }
        self.counts[b] -= 1;
        self.entries.remove(pos)
    }

    /// Whether `line` is buffered, without consuming it.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.counts[bucket(line, self.mask)] != 0 && self.entries.iter().any(|e| e.line == line)
    }

    /// Discards all entries belonging to `stream` (stream replacement —
    /// "which means discarding the contents of the prefetch buffer ...
    /// related to the replaced stream", paper §III-B).
    pub fn discard_stream(&mut self, stream: u32) -> usize {
        self.discard_stream_with(stream, |_| {})
    }

    /// [`PrefetchBuffer::discard_stream`], invoking `observe` on each
    /// discarded entry (flight-recorder emission) before it is dropped.
    pub fn discard_stream_with(
        &mut self,
        stream: u32,
        mut observe: impl FnMut(&BufferedPrefetch),
    ) -> usize {
        // Injected bug for the checker self-test: discarded lines keep
        // their filter counts, so the filter no longer matches the entries.
        #[cfg(domino_mutate)]
        let uncount = !domino_telemetry::mutate_active("buffer_filter_stale_count");
        #[cfg(not(domino_mutate))]
        let uncount = true;
        let before = self.entries.len();
        let (counts, mask) = (&mut self.counts, self.mask);
        self.entries.retain(|e| {
            let keep = e.stream != Some(stream);
            if !keep {
                observe(e);
                if uncount {
                    counts[bucket(e.line, mask)] -= 1;
                }
            }
            keep
        });
        let discarded = before - self.entries.len();
        self.stats.discarded_unused += discarded as u64;
        discarded
    }

    /// Whether every filter count equals the number of buffered lines in
    /// its bucket: the invariant that lets a zero count skip the scan.
    /// The checker's buffer model asserts it after every operation.
    pub fn filter_is_exact(&self) -> bool {
        let mut counts = vec![0u16; self.counts.len()];
        for e in &self.entries {
            counts[bucket(e.line, self.mask)] += 1;
        }
        counts == self.counts
    }

    /// Number of buffered blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> PrefetchBufferStats {
        self.stats
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reports lifetime buffer counters (`buffer.inserted`, …).
    pub fn emit_counters(&self, sink: &mut dyn CounterSink) {
        sink.counter("buffer.inserted", self.stats.inserted);
        sink.counter("buffer.hits", self.stats.hits);
        sink.counter("buffer.evicted_unused", self.stats.evicted_unused);
        sink.counter("buffer.discarded_unused", self.stats.discarded_unused);
        sink.counter("buffer.duplicate_inserts", self.stats.duplicate_inserts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn insert_take_roundtrip() {
        let mut b = PrefetchBuffer::new(4);
        b.insert(line(1), 10.0, Some(0));
        let e = b.take(line(1)).unwrap();
        assert_eq!(e.ready_at, 10.0);
        assert_eq!(e.stream, Some(0));
        assert_eq!(b.stats().hits, 1);
    }

    #[test]
    fn capacity_eviction_counts_overprediction() {
        let mut b = PrefetchBuffer::new(2);
        b.insert(line(1), 0.0, None);
        b.insert(line(2), 0.0, None);
        b.insert(line(3), 0.0, None); // evicts line 1
        assert!(!b.contains(line(1)));
        assert_eq!(b.stats().evicted_unused, 1);
        assert_eq!(b.stats().overpredictions(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut b = PrefetchBuffer::new(4);
        b.insert(line(9), 0.0, None);
        b.insert(line(9), 5.0, None);
        assert_eq!(b.len(), 1);
        assert_eq!(b.stats().duplicate_inserts, 1);
    }

    #[test]
    fn stream_discard() {
        let mut b = PrefetchBuffer::new(8);
        b.insert(line(1), 0.0, Some(0));
        b.insert(line(2), 0.0, Some(1));
        b.insert(line(3), 0.0, Some(0));
        assert_eq!(b.discard_stream(0), 2);
        assert!(b.contains(line(2)));
        assert_eq!(b.stats().discarded_unused, 2);
    }

    #[test]
    fn hits_are_not_overpredictions() {
        let mut b = PrefetchBuffer::new(2);
        b.insert(line(1), 0.0, None);
        b.take(line(1));
        b.insert(line(2), 0.0, None);
        b.insert(line(3), 0.0, None);
        b.insert(line(4), 0.0, None);
        // line1 was used; lines 2 evicted unused.
        assert_eq!(b.stats().overpredictions(), 1);
    }

    #[test]
    fn insert_reports_its_outcome() {
        let mut b = PrefetchBuffer::new(2);
        assert_eq!(b.insert(line(1), 0.0, Some(7)), InsertOutcome::Inserted);
        assert_eq!(b.insert(line(1), 1.0, None), InsertOutcome::Duplicate);
        assert_eq!(b.insert(line(2), 0.0, None), InsertOutcome::Inserted);
        match b.insert(line(3), 0.0, None) {
            InsertOutcome::Evicted(victim) => {
                assert_eq!(victim.line, line(1));
                assert_eq!(victim.stream, Some(7));
            }
            other => panic!("expected an eviction, got {other:?}"),
        }
    }

    #[test]
    fn discard_stream_with_observes_each_victim() {
        let mut b = PrefetchBuffer::new(8);
        b.insert(line(1), 0.0, Some(0));
        b.insert(line(2), 0.0, Some(1));
        b.insert(line(3), 0.0, Some(0));
        let mut seen = Vec::new();
        let n = b.discard_stream_with(0, |e| seen.push(e.line));
        assert_eq!(n, 2);
        assert_eq!(seen, vec![line(1), line(3)]);
        assert_eq!(b.stats().discarded_unused, 2);
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_panics() {
        PrefetchBuffer::new(0);
    }

    #[test]
    fn paper_buffer_filters_with_eight_buckets_per_slot() {
        let b = PrefetchBuffer::paper();
        assert_eq!(b.counts.len(), 256);
        assert!(b.filter_is_exact());
    }

    #[test]
    fn results_do_not_depend_on_the_filter() {
        // A one-bucket filter shares its bucket among all lines, so it
        // scans on every probe of a non-empty buffer: the plain scan. Two
        // buckets mix shared buckets with empty ones. Every outcome must
        // match the default filter's, and every removal path (take,
        // eviction, stream discard) must leave each filter exact.
        let mut bufs = [
            PrefetchBuffer::new(4),
            PrefetchBuffer::with_filter_buckets(4, 1),
            PrefetchBuffer::with_filter_buckets(4, 2),
        ];
        let mut state = 0x5eed_u64;
        for i in 0..4000u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let l = line(state % 11);
            let stream = Some((state >> 8) as u32 % 3);
            let op = (state >> 16) % 8;
            let outcomes: Vec<String> = bufs
                .iter_mut()
                .map(|b| match op {
                    0..=3 => format!("{:?}", b.insert(l, f64::from(i), stream)),
                    4 | 5 => format!("{:?}", b.take(l)),
                    6 => format!("{}", b.contains(l)),
                    _ => format!("{}", b.discard_stream((state >> 24) as u32 % 3)),
                })
                .collect();
            assert!(
                outcomes.iter().all(|o| *o == outcomes[0]),
                "op {i}: {outcomes:?}"
            );
            for b in &bufs {
                assert!(b.filter_is_exact(), "op {i}: filter drifted");
                assert_eq!(b.len(), bufs[0].len());
            }
        }
        let stats = bufs[0].stats();
        assert!(stats.hits > 0 && stats.evicted_unused > 0 && stats.discarded_unused > 0);
        assert!(bufs.iter().all(|b| b.stats() == stats));
    }
}
