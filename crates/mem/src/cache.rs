//! Set-associative cache model with pluggable replacement.

use domino_telemetry::CounterSink;
use domino_trace::addr::{LineAddr, LINE_BYTES};

/// Replacement policy for [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replacement {
    /// Least-recently-used (the paper's caches and tables all use LRU).
    #[default]
    Lru,
    /// First-in first-out (insertion order, no promotion on hit).
    Fifo,
    /// Pseudo-random victim selection (deterministic xorshift).
    Random,
}

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// The paper's L1-D: 64 KB, 2-way (Table I).
    pub fn l1d() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 2,
            replacement: Replacement::Lru,
        }
    }

    /// The paper's LLC: 4 MB, 16-way (Table I).
    pub fn llc() -> Self {
        CacheConfig {
            size_bytes: 4 * 1024 * 1024,
            ways: 16,
            replacement: Replacement::Lru,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, capacity smaller
    /// than one way of lines, or a non-power-of-two set count).
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0, "cache needs at least one way");
        let lines = self.size_bytes / LINE_BYTES;
        let sets = (lines as usize) / self.ways;
        assert!(sets > 0, "cache smaller than one way");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// A set-associative cache over line addresses.
///
/// Tracks presence only (no dirty/clean state): the reproduction's
/// experiments are read-miss driven, as in the paper.
///
/// Storage is one contiguous slab of `sets * ways` line slots at fixed
/// stride `ways`, plus a per-set occupancy count. Each set's occupied
/// prefix is kept physically in replacement order — slot 0 is the victim
/// end, the last occupied slot the most-recent end — so an access walks
/// one short contiguous run and never chases a per-set `Vec` pointer.
/// All storage is allocated once at construction; the steady-state
/// access/insert/invalidate path performs no heap allocation.
///
/// ```
/// use domino_mem::cache::{CacheConfig, SetAssocCache};
/// use domino_trace::addr::LineAddr;
///
/// let mut l1 = SetAssocCache::new(CacheConfig::l1d());
/// let line = LineAddr::new(42);
/// assert!(!l1.access(line));   // cold miss
/// l1.insert(line);
/// assert!(l1.access(line));    // hit
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    set_mask: u64,
    /// Flat `sets * ways` slab; set `s` occupies `[s*ways, (s+1)*ways)`.
    lines: Vec<LineAddr>,
    /// Occupied-slot count per set (the length of the ordered prefix).
    occ: Vec<u32>,
    rand_state: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        SetAssocCache {
            config,
            set_mask: sets as u64 - 1,
            lines: vec![LineAddr::default(); sets * config.ways],
            occ: vec![0; sets],
            rand_state: 0x9e37_79b9_7f4a_7c15,
            hits: 0,
            misses: 0,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() & self.set_mask) as usize
    }

    /// The occupied prefix of set `idx`, oldest (victim) first.
    fn set_slice(&self, idx: usize) -> &[LineAddr] {
        let base = idx * self.config.ways;
        &self.lines[base..base + self.occ[idx] as usize]
    }

    fn set_slice_mut(&mut self, idx: usize) -> &mut [LineAddr] {
        let base = idx * self.config.ways;
        &mut self.lines[base..base + self.occ[idx] as usize]
    }

    /// The slot a full set evicts on this insert: 0, the oldest, under
    /// LRU and FIFO. `Random` steps its xorshift state on every insert,
    /// full set or not, and only it pays for the modulo.
    fn victim_slot(&mut self, replacement: Replacement) -> usize {
        if replacement != Replacement::Random {
            return 0;
        }
        self.rand_state ^= self.rand_state << 13;
        self.rand_state ^= self.rand_state >> 7;
        self.rand_state ^= self.rand_state << 17;
        (self.rand_state % self.config.ways as u64) as usize
    }

    /// Looks up a line, updating replacement state. Returns `true` on hit.
    pub fn access(&mut self, line: LineAddr) -> bool {
        let promote = self.config.replacement == Replacement::Lru;
        let idx = self.set_index(line);
        let set = self.set_slice_mut(idx);
        if let Some(pos) = set.iter().position(|&l| l == line) {
            if promote {
                // Equivalent of remove(pos) + push: slide the younger
                // entries down and re-append at the most-recent end.
                set[pos..].rotate_left(1);
            }
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Checks presence without touching replacement state or counters.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.set_slice(self.set_index(line)).contains(&line)
    }

    /// Inserts a line, returning the evicted victim if the set was full.
    /// Inserting a line already present refreshes its recency instead.
    pub fn insert(&mut self, line: LineAddr) -> Option<LineAddr> {
        let replacement = self.config.replacement;
        let ways = self.config.ways;
        let idx = self.set_index(line);
        let victim_pos = self.victim_slot(replacement);
        let set = self.set_slice_mut(idx);
        // Branchless presence reduction first: an insert's common case
        // is a new line (every demand fill follows a failed lookup, and
        // synthetic LLC pollution is uniform over a space far larger
        // than the cache), so the early exit of a positional scan never
        // fires and only inhibits vectorization. A line is resident at
        // most once, so re-deriving its position on the rare refresh
        // path costs one more short scan.
        let mut present = false;
        for &l in set.iter() {
            present |= l == line;
        }
        if present {
            let pos = set
                .iter()
                .position(|&l| l == line)
                .expect("presence reduction found the line");
            if replacement == Replacement::Lru {
                set[pos..].rotate_left(1);
            }
            return None;
        }
        if set.len() == ways {
            let evicted = set[victim_pos];
            set[victim_pos..].rotate_left(1);
            set[ways - 1] = line;
            Some(evicted)
        } else {
            let base = idx * ways;
            let n = self.occ[idx] as usize;
            self.lines[base + n] = line;
            self.occ[idx] += 1;
            None
        }
    }

    /// Fused demand access: one set scan that behaves exactly like
    /// [`SetAssocCache::access`] followed — on a miss only — by
    /// [`SetAssocCache::insert`] of the same line. Returns
    /// `(hit, evicted_victim)`.
    ///
    /// This is every engine's L1 probe: the engines insert the demand
    /// line right after a miss and never after a hit, so the second
    /// scan of `insert` (and, for `Random` replacement, its RNG step on
    /// the hit path) is provably dead and elided here.
    pub fn access_insert(&mut self, line: LineAddr) -> (bool, Option<LineAddr>) {
        let replacement = self.config.replacement;
        let ways = self.config.ways;
        let idx = self.set_index(line);
        let base = idx * ways;
        let n = self.occ[idx] as usize;
        let set = &mut self.lines[base..base + n];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            if replacement == Replacement::Lru {
                set[pos..].rotate_left(1);
            }
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        let victim_pos = self.victim_slot(replacement);
        if n == ways {
            let set = &mut self.lines[base..base + n];
            let evicted = set[victim_pos];
            set[victim_pos..].rotate_left(1);
            set[ways - 1] = line;
            (false, Some(evicted))
        } else {
            self.lines[base + n] = line;
            self.occ[idx] += 1;
            (false, None)
        }
    }

    /// Hints the host CPU to pull `line`'s set into cache ahead of an
    /// upcoming [`SetAssocCache::access`]/[`SetAssocCache::insert`].
    /// Purely a host-side prefetch of the simulator's own storage — it
    /// reads and writes no simulated state, so interleaving it anywhere
    /// cannot change any simulation outcome. The timing engine uses it
    /// to overlap the host-memory latency of set lookups it can predict
    /// (the slab of a large cache does not fit in the host's L1).
    #[inline]
    pub fn prefetch_set(&self, line: LineAddr) {
        let base = self.set_index(line) * self.config.ways;
        let ptr = std::ptr::addr_of!(self.lines[base]);
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(ptr.cast::<i8>(), _MM_HINT_T0);
            // A 16-way set spans two cache lines of slab.
            if self.config.ways * 8 > 64 {
                _mm_prefetch(ptr.cast::<i8>().add(64), _MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = ptr;
    }

    /// Removes a line if present; returns whether it was there.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let idx = self.set_index(line);
        let set = self.set_slice_mut(idx);
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set[pos..].rotate_left(1);
            self.occ[idx] -= 1;
            true
        } else {
            false
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.occ.iter().map(|&n| n as usize).sum()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counted by [`SetAssocCache::access`].
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Reports hit/miss counters under `prefix` (e.g. `l1.hits`).
    pub fn emit_counters(&self, prefix: &str, sink: &mut dyn CounterSink) {
        sink.counter(&format!("{prefix}.hits"), self.hits);
        sink.counter(&format!("{prefix}.misses"), self.misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize, replacement: Replacement) -> SetAssocCache {
        // 4 sets x `ways` lines.
        SetAssocCache::new(CacheConfig {
            size_bytes: (4 * ways) as u64 * LINE_BYTES,
            ways,
            replacement,
        })
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::l1d().sets(), 512);
        assert_eq!(CacheConfig::llc().sets(), 4096);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny(2, Replacement::Lru);
        let line = LineAddr::new(5);
        assert!(!c.access(line));
        c.insert(line);
        assert!(c.access(line));
        assert_eq!(c.hit_miss(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, Replacement::Lru);
        // All map to set 0 (multiples of 4).
        let a = LineAddr::new(0);
        let b = LineAddr::new(4);
        let d = LineAddr::new(8);
        c.insert(a);
        c.insert(b);
        assert!(c.access(a)); // a most recent
        let evicted = c.insert(d);
        assert_eq!(evicted, Some(b), "b was least recent");
        assert!(c.contains(a));
        assert!(c.contains(d));
    }

    #[test]
    fn fifo_ignores_hits_for_victims() {
        let mut c = tiny(2, Replacement::Fifo);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4);
        let d = LineAddr::new(8);
        c.insert(a);
        c.insert(b);
        assert!(c.access(a)); // does not promote under FIFO
        let evicted = c.insert(d);
        assert_eq!(evicted, Some(a), "a entered first");
    }

    #[test]
    fn random_replacement_stays_within_capacity() {
        let mut c = tiny(4, Replacement::Random);
        for i in 0..100 {
            c.insert(LineAddr::new(i * 4)); // all in set 0
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn reinsert_does_not_evict() {
        let mut c = tiny(2, Replacement::Lru);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4);
        c.insert(a);
        c.insert(b);
        assert_eq!(c.insert(a), None, "refresh, not eviction");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny(2, Replacement::Lru);
        let a = LineAddr::new(16);
        c.insert(a);
        assert!(c.invalidate(a));
        assert!(!c.invalidate(a));
        assert!(!c.contains(a));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny(1, Replacement::Lru);
        // Different sets: 0,1,2,3.
        for i in 0..4 {
            assert_eq!(c.insert(LineAddr::new(i)), None);
        }
        assert_eq!(c.len(), 4);
        // Fifth insert into set 0 evicts only from set 0.
        assert_eq!(c.insert(LineAddr::new(4)), Some(LineAddr::new(0)));
        assert!(c.contains(LineAddr::new(1)));
    }

    #[test]
    fn access_insert_matches_access_then_insert() {
        // Drive two caches with the same pseudo-random line stream: one
        // via the scalar access()+insert-on-miss protocol, one via the
        // fused access_insert(). Every observable — hit results, victims,
        // counters, residency — must match for every policy.
        for replacement in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
            let mut scalar = tiny(2, replacement);
            let mut fused = tiny(2, replacement);
            let mut state = 0xdead_beefu64;
            for _ in 0..2000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let line = LineAddr::new(state % 24);
                let hit = scalar.access(line);
                let victim = if hit { None } else { scalar.insert(line) };
                assert_eq!(
                    fused.access_insert(line),
                    (hit, victim),
                    "{replacement:?}: fused path diverged on line {line:?}"
                );
                assert_eq!(scalar.hit_miss(), fused.hit_miss());
            }
            assert_eq!(scalar.len(), fused.len());
            for l in 0..24 {
                let line = LineAddr::new(l);
                assert_eq!(
                    scalar.contains(line),
                    fused.contains(line),
                    "{replacement:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        SetAssocCache::new(CacheConfig {
            size_bytes: 3 * LINE_BYTES,
            ways: 1,
            replacement: Replacement::Lru,
        });
    }
}
