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
    stats: PrefetchBufferStats,
}

impl PrefetchBuffer {
    /// Creates a buffer holding up to `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "prefetch buffer needs capacity");
        PrefetchBuffer {
            capacity,
            entries: VecDeque::with_capacity(capacity),
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
        if self.entries.iter().any(|e| e.line == line) {
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
        match victim {
            Some(v) => InsertOutcome::Evicted(v),
            None => InsertOutcome::Inserted,
        }
    }

    /// Demand lookup: on hit, removes and returns the entry (the block
    /// moves into the L1) and counts a useful prefetch.
    pub fn take(&mut self, line: LineAddr) -> Option<BufferedPrefetch> {
        let pos = self.entries.iter().position(|e| e.line == line)?;
        self.stats.hits += 1;
        // Injected bug for the checker self-test: the hit is counted but
        // the entry stays resident, so it can be hit or evicted again.
        #[cfg(domino_mutate)]
        if domino_telemetry::mutate_active("buffer_sticky_take") {
            return self.entries.get(pos).copied();
        }
        self.entries.remove(pos)
    }

    /// Peeks without consuming (used by tests and debug displays).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|e| e.line == line)
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
        let before = self.entries.len();
        self.entries.retain(|e| {
            let keep = e.stream != Some(stream);
            if !keep {
                observe(e);
            }
            keep
        });
        let discarded = before - self.entries.len();
        self.stats.discarded_unused += discarded as u64;
        discarded
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
}
