//! Miss-status holding registers.
//!
//! MSHRs bound how many distinct line misses can be outstanding at once —
//! the hardware ceiling on memory-level parallelism. Table I gives the
//! paper's configuration: 32 MSHRs at the L1-D, 64 at the L2. The interval
//! timing model uses an [`MshrFile`] to cap how many overlapping misses a
//! ROB window can issue.

use domino_telemetry::CounterSink;
use domino_trace::addr::LineAddr;

/// One in-flight miss.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    line: LineAddr,
    done_at: f64,
    merged: u32,
}

/// A file of miss-status holding registers.
///
/// Registers live in a fixed slab with a free-list, and completion
/// times sit in a hand-rolled binary min-heap over slab slots — so
/// [`MshrFile::earliest_completion`] is O(1) and
/// [`MshrFile::retire_until`] pops only the registers that actually
/// complete, instead of re-scanning the whole file on every full-MSHR
/// stall in the timing model. All storage is allocated once at
/// construction.
///
/// ```
/// use domino_mem::mshr::MshrFile;
/// use domino_trace::addr::LineAddr;
///
/// let mut mshrs = MshrFile::new(2);
/// assert!(mshrs.allocate(LineAddr::new(1), 100.0).is_some());
/// assert!(mshrs.allocate(LineAddr::new(2), 120.0).is_some());
/// assert!(mshrs.allocate(LineAddr::new(3), 130.0).is_none(), "full");
/// mshrs.retire_until(125.0);
/// assert!(mshrs.allocate(LineAddr::new(3), 130.0).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// Register slab, `capacity` slots; `live` marks occupancy.
    slots: Vec<Entry>,
    live: Vec<bool>,
    /// Stack of unoccupied slot indices.
    free: Vec<u32>,
    /// Min-heap of `(done_at, slot)` over the live registers.
    heap: Vec<(f64, u32)>,
    allocations: u64,
    merges: u64,
    stalls: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs capacity");
        MshrFile {
            capacity,
            slots: vec![
                Entry {
                    line: LineAddr::default(),
                    done_at: 0.0,
                    merged: 0,
                };
                capacity
            ],
            live: vec![false; capacity],
            free: (0..capacity as u32).rev().collect(),
            heap: Vec::with_capacity(capacity),
            allocations: 0,
            merges: 0,
            stalls: 0,
        }
    }

    fn heap_push(&mut self, done_at: f64, slot: u32) {
        self.heap.push((done_at, slot));
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= self.heap[i].0 {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    fn heap_pop(&mut self) -> Option<(f64, u32)> {
        let n = self.heap.len();
        if n == 0 {
            return None;
        }
        self.heap.swap(0, n - 1);
        let top = self.heap.pop();
        let mut i = 0;
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut min = i;
            if l < n && self.heap[l].0 < self.heap[min].0 {
                min = l;
            }
            if r < n && self.heap[r].0 < self.heap[min].0 {
                min = r;
            }
            if min == i {
                break;
            }
            self.heap.swap(i, min);
            i = min;
        }
        top
    }

    /// Merges a secondary miss into a live register for `line`, if any.
    fn merge(&mut self, line: LineAddr) -> Option<f64> {
        for i in 0..self.capacity {
            if self.live[i] && self.slots[i].line == line {
                self.slots[i].merged += 1;
                self.merges += 1;
                return Some(self.slots[i].done_at);
            }
        }
        None
    }

    /// Attempts to track a miss on `line` completing at `done_at`.
    ///
    /// Returns the completion time on success. A miss on an
    /// already-tracked line merges (secondary miss) and returns the
    /// existing completion time. Returns `None` — and counts a structural
    /// stall — when all registers are busy.
    pub fn allocate(&mut self, line: LineAddr, done_at: f64) -> Option<f64> {
        if let Some(t) = self.merge(line) {
            return Some(t);
        }
        let Some(slot) = self.free.pop() else {
            self.stalls += 1;
            return None;
        };
        self.slots[slot as usize] = Entry {
            line,
            done_at,
            merged: 0,
        };
        self.live[slot as usize] = true;
        self.heap_push(done_at, slot);
        self.allocations += 1;
        Some(done_at)
    }

    /// If `line` is already in flight, merges (secondary miss) and
    /// returns the existing completion time without a new transfer.
    pub fn completion_of(&mut self, line: LineAddr) -> Option<f64> {
        self.merge(line)
    }

    /// Releases all registers whose miss completed at or before `now`.
    pub fn retire_until(&mut self, now: f64) {
        // Injected bug for the checker self-test: treat the retirement
        // boundary as exclusive, leaking registers whose miss completes
        // exactly at `now`.
        #[cfg(domino_mutate)]
        let exclusive = domino_telemetry::mutate_active("mshr_retire_boundary");
        #[cfg(not(domino_mutate))]
        let exclusive = false;
        while let Some(&(t, slot)) = self.heap.first() {
            if t > now || (exclusive && t >= now) {
                break;
            }
            self.heap_pop();
            self.live[slot as usize] = false;
            self.free.push(slot);
        }
    }

    /// Earliest completion time among outstanding misses, if any — the
    /// time a stalled allocator must wait for.
    pub fn earliest_completion(&self) -> Option<f64> {
        self.heap.first().map(|&(t, _)| t)
    }

    /// Outstanding miss count.
    pub fn in_flight(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// `(allocations, merges, structural_stalls)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.allocations, self.merges, self.stalls)
    }

    /// Register count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reports MSHR counters under `prefix` (e.g. `l1_mshr.allocations`).
    pub fn emit_counters(&self, prefix: &str, sink: &mut dyn CounterSink) {
        sink.counter(&format!("{prefix}.allocations"), self.allocations);
        sink.counter(&format!("{prefix}.merges"), self.merges);
        sink.counter(&format!("{prefix}.stalls"), self.stalls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn secondary_miss_merges() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.allocate(line(1), 100.0), Some(100.0));
        assert_eq!(m.allocate(line(1), 999.0), Some(100.0), "merged");
        assert_eq!(m.in_flight(), 1);
        let (alloc, merges, _) = m.counters();
        assert_eq!((alloc, merges), (1, 1));
    }

    #[test]
    fn full_file_stalls() {
        let mut m = MshrFile::new(1);
        m.allocate(line(1), 50.0);
        assert_eq!(m.allocate(line(2), 60.0), None);
        assert_eq!(m.counters().2, 1);
        assert_eq!(m.earliest_completion(), Some(50.0));
    }

    #[test]
    fn retire_frees_registers() {
        let mut m = MshrFile::new(2);
        m.allocate(line(1), 50.0);
        m.allocate(line(2), 80.0);
        m.retire_until(60.0);
        assert_eq!(m.in_flight(), 1);
        assert!(m.allocate(line(3), 90.0).is_some());
    }

    #[test]
    fn earliest_completion_empty() {
        let m = MshrFile::new(2);
        assert_eq!(m.earliest_completion(), None);
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_panics() {
        MshrFile::new(0);
    }
}
