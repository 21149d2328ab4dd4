//! Property-based tests for the memory substrates: the set-associative
//! cache against a reference model, prefetch-buffer accounting, MSHR
//! bounds, and the history table against a reference log.
//!
//! Inputs are drawn from a seeded [`SimRng`] so the suite is fully
//! deterministic and dependency-free.

use domino_mem::cache::{CacheConfig, Replacement, SetAssocCache};
use domino_mem::history::{HistoryEntry, HistoryTable};
use domino_mem::mshr::MshrFile;
use domino_mem::prefetch_buffer::PrefetchBuffer;
use domino_trace::addr::{LineAddr, LINE_BYTES};
use domino_trace::rng::SimRng;
use std::collections::VecDeque;

const CASES: u64 = 64;

/// Reference LRU model: per set, a deque with MRU at the back.
#[derive(Debug)]
struct RefLru {
    sets: Vec<VecDeque<u64>>,
    ways: usize,
}

impl RefLru {
    fn new(sets: usize, ways: usize) -> Self {
        RefLru {
            sets: vec![VecDeque::new(); sets],
            ways,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) % self.sets.len()
    }

    fn access(&mut self, line: u64) -> bool {
        let s = self.set_of(line);
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.push_back(line);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, line: u64) {
        let s = self.set_of(line);
        if self.access(line) {
            return;
        }
        let set = &mut self.sets[s];
        if set.len() == self.ways {
            set.pop_front();
        }
        set.push_back(line);
    }
}

/// The LRU cache agrees with a straightforward reference model on
/// every access of any sequence.
#[test]
fn cache_matches_reference_lru() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x1_4B00 + case);
        let len = 1 + rng.index(600);
        let lines: Vec<u64> = (0..len).map(|_| rng.below(64)).collect();
        let ways = 1 + rng.index(4);
        let sets = 8usize;
        let mut cache = SetAssocCache::new(CacheConfig {
            size_bytes: (sets * ways) as u64 * LINE_BYTES,
            ways,
            replacement: Replacement::Lru,
        });
        let mut reference = RefLru::new(sets, ways);
        for &l in &lines {
            let line = LineAddr::new(l);
            let hit = cache.access(line);
            let ref_hit = reference.access(l);
            assert_eq!(hit, ref_hit, "divergence at line {l}");
            if !hit {
                cache.insert(line);
                reference.insert(l);
            }
        }
    }
}

/// Capacity is never exceeded under any policy.
#[test]
fn cache_capacity_bound() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0xCA_B000 + case);
        let len = 1 + rng.index(500);
        let lines: Vec<u64> = (0..len).map(|_| rng.below(10_000)).collect();
        let policy = match rng.index(3) {
            0 => Replacement::Lru,
            1 => Replacement::Fifo,
            _ => Replacement::Random,
        };
        let mut cache = SetAssocCache::new(CacheConfig {
            size_bytes: 16 * LINE_BYTES,
            ways: 4,
            replacement: policy,
        });
        for &l in &lines {
            cache.insert(LineAddr::new(l));
            assert!(cache.len() <= 16);
        }
    }
}

/// Buffer accounting: inserted = hits + overpredictions + duplicates
/// + still-resident, for any interleaving of inserts and takes.
#[test]
fn prefetch_buffer_accounting() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0xB0F_0000 + case);
        let len = 1 + rng.index(400);
        let ops: Vec<(u64, bool)> = (0..len).map(|_| (rng.below(32), rng.chance(0.5))).collect();
        let capacity = 1 + rng.index(39);
        let mut buf = PrefetchBuffer::new(capacity);
        for &(line, is_insert) in &ops {
            if is_insert {
                buf.insert(LineAddr::new(line), 0.0, None);
            } else {
                buf.take(LineAddr::new(line));
            }
        }
        let s = buf.stats();
        assert_eq!(
            s.inserted,
            s.hits + s.evicted_unused + s.duplicate_inserts + buf.len() as u64,
            "{:?} + resident {}",
            s,
            buf.len()
        );
        assert!(buf.len() <= capacity);
    }
}

/// MSHRs never track more than their capacity and never lose a
/// completion.
#[test]
fn mshr_bounds() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x3_58F0 + case);
        let len = 1 + rng.index(200);
        let ops: Vec<(u64, f64)> = (0..len)
            .map(|_| (rng.below(16), 1.0 + rng.unit() * 99.0))
            .collect();
        let capacity = 1 + rng.index(7);
        let mut mshrs = MshrFile::new(capacity);
        let mut clock = 0.0;
        for &(line, dur) in &ops {
            clock += 1.0;
            mshrs.retire_until(clock);
            let _ = mshrs.allocate(LineAddr::new(line), clock + dur);
            assert!(mshrs.in_flight() <= capacity);
            if let Some(c) = mshrs.earliest_completion() {
                assert!(c > clock);
            }
        }
    }
}

/// History-table residency: a bounded table keeps exactly the last
/// `capacity` positions readable, and reads return what was written.
#[test]
fn history_residency() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x415_0000 + case);
        let len = 1 + rng.index(300);
        let lines: Vec<u64> = (0..len).map(|_| rng.below(1000)).collect();
        let capacity = 1 + rng.index(63);
        let mut ht = HistoryTable::new(capacity);
        for (i, &l) in lines.iter().enumerate() {
            let pos = ht.append(LineAddr::new(l), i % 2 == 0);
            assert_eq!(pos, i as u64);
        }
        let n = lines.len() as u64;
        for pos in 0..n {
            let live = n - pos <= capacity as u64;
            assert_eq!(ht.is_live(pos), live);
            if live {
                let e = ht.get(pos).expect("live entries are readable");
                assert_eq!(e.line, LineAddr::new(lines[pos as usize]));
            } else {
                assert!(ht.get(pos).is_none());
            }
        }
    }
}

/// The history table against a plain `Vec<HistoryEntry>` of everything
/// ever appended. After every append, `len`, `is_live`, `get` and
/// `successors` must agree with the log, for an unbounded table (0),
/// across flag-word boundaries (63, 64, 65) and through ring wrap (1,
/// 12, 200). Lines span the whole `u64` range, `u64::MAX` included.
#[test]
fn history_matches_reference_log() {
    for capacity in [0usize, 1, 12, 63, 64, 65, 200] {
        for case in 0..8u64 {
            let mut rng = SimRng::seed(0x415_7AB0 + 1000 * capacity as u64 + case);
            let mut ht = HistoryTable::new(capacity);
            let mut log: Vec<HistoryEntry> = Vec::new();
            for _ in 0..150 + rng.index(300) {
                let raw = if rng.chance(0.1) {
                    u64::MAX
                } else {
                    rng.next_u64()
                };
                let entry = HistoryEntry {
                    line: LineAddr::new(raw),
                    stream_head: rng.chance(0.5),
                };
                let pos = ht.append(entry.line, entry.stream_head);
                assert_eq!(pos, log.len() as u64);
                log.push(entry);
                let n = log.len() as u64;
                assert_eq!(ht.len(), n);
                let live = |p: u64| p < n && (capacity == 0 || n - p <= capacity as u64);
                for p in 0..n + 2 {
                    assert_eq!(
                        ht.is_live(p),
                        live(p),
                        "cap {capacity}: is_live({p}) of {n}"
                    );
                    let want = live(p).then(|| log[p as usize]);
                    assert_eq!(ht.get(p), want, "cap {capacity}: get({p}) of {n}");
                }
                let from = rng.below(n + 1);
                let k = rng.index(30);
                let want: Vec<HistoryEntry> = (from + 1..from + 1 + k as u64)
                    .take_while(|&p| live(p))
                    .map(|p| log[p as usize])
                    .collect();
                let mut rows: Vec<u64> = (from + 1..from + 1 + want.len() as u64)
                    .map(HistoryTable::row_of)
                    .collect();
                rows.dedup();
                assert_eq!(
                    ht.successors(from, k),
                    (want, rows.len() as u32),
                    "cap {capacity}: successors({from}, {k}) of {n}"
                );
            }
        }
    }
}
