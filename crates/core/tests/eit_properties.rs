//! Property tests for the Enhanced Index Table: its two-level LRU
//! behaviour is checked against straightforward reference models over
//! arbitrary update/lookup interleavings, from tiny tables where every
//! row conflicts to the paper's 2 M rows and the unbounded table.
//!
//! Interleavings are drawn from a seeded [`SimRng`] so the suite is
//! fully deterministic and dependency-free.

use domino::{Eit, EitConfig};
use domino_trace::addr::LineAddr;
use domino_trace::rng::SimRng;
use std::collections::{HashMap, VecDeque};

/// Continuations of one super-entry, oldest first.
type Entries = VecDeque<(u64, u64)>;

/// Records `next` (at `pointer`) as the most recent continuation,
/// refreshing it in place or evicting the oldest at `cap`.
fn touch(entries: &mut Entries, next: u64, pointer: u64, cap: usize) {
    if let Some(pos) = entries.iter().position(|&(a, _)| a == next) {
        entries.remove(pos);
    } else if entries.len() == cap {
        entries.pop_front();
    }
    entries.push_back((next, pointer));
}

/// What every reference model answers, in the EIT's terms.
trait Model {
    /// Applies an update; returns the tag evicted by capacity, if any.
    fn update(&mut self, tag: u64, next: u64, pointer: u64) -> Option<u64>;
    /// The entries of `tag`'s super-entry (promoting it), if present.
    fn lookup(&mut self, tag: u64) -> Option<Vec<(u64, u64)>>;
}

/// Finite-table reference: per row, an ordered list of (tag, entries)
/// where the back is most recent. Rows live in a map so a 2 M-row model
/// stays cheap.
#[derive(Debug)]
struct RefEit {
    rows: HashMap<u64, VecDeque<(u64, Entries)>>,
    row_count: u64,
    super_cap: usize,
    entry_cap: usize,
}

impl RefEit {
    fn new(rows: usize, super_cap: usize, entry_cap: usize) -> Self {
        RefEit {
            rows: HashMap::new(),
            row_count: rows as u64,
            super_cap,
            entry_cap,
        }
    }

    fn row_of(&self, tag: u64) -> u64 {
        tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) % self.row_count
    }
}

impl Model for RefEit {
    fn update(&mut self, tag: u64, next: u64, pointer: u64) -> Option<u64> {
        let (super_cap, entry_cap) = (self.super_cap, self.entry_cap);
        let row = self.rows.entry(self.row_of(tag)).or_default();
        let mut evicted = None;
        let mut se = match row.iter().position(|(t, _)| *t == tag) {
            Some(pos) => row.remove(pos).expect("position exists"),
            None => {
                if row.len() == super_cap {
                    evicted = row.pop_front().map(|(t, _)| t);
                }
                (tag, VecDeque::new())
            }
        };
        touch(&mut se.1, next, pointer, entry_cap);
        row.push_back(se);
        evicted
    }

    fn lookup(&mut self, tag: u64) -> Option<Vec<(u64, u64)>> {
        let row_idx = self.row_of(tag);
        let row = self.rows.get_mut(&row_idx)?;
        let pos = row.iter().position(|(t, _)| *t == tag)?;
        let se = row.remove(pos).expect("position exists");
        let entries: Vec<(u64, u64)> = se.1.iter().copied().collect();
        row.push_back(se);
        Some(entries)
    }
}

/// Unbounded-table reference: one super-entry per tag, never evicted.
#[derive(Debug)]
struct RefUnbounded {
    supers: HashMap<u64, Entries>,
    entry_cap: usize,
}

impl Model for RefUnbounded {
    fn update(&mut self, tag: u64, next: u64, pointer: u64) -> Option<u64> {
        touch(
            self.supers.entry(tag).or_default(),
            next,
            pointer,
            self.entry_cap,
        );
        None
    }

    fn lookup(&mut self, tag: u64) -> Option<Vec<(u64, u64)>> {
        self.supers.get(&tag).map(|e| e.iter().copied().collect())
    }
}

/// The reference model for a table of geometry `cfg`.
fn reference(cfg: &EitConfig) -> Box<dyn Model> {
    if cfg.rows == 0 {
        Box::new(RefUnbounded {
            supers: HashMap::new(),
            entry_cap: cfg.entries_per_super,
        })
    } else {
        Box::new(RefEit::new(
            cfg.rows,
            cfg.super_entries_per_row,
            cfg.entries_per_super,
        ))
    }
}

#[derive(Debug, Clone)]
enum Op {
    Update { tag: u64, next: u64, pointer: u64 },
    Lookup { tag: u64 },
}

/// `len` ops, half updates and half lookups, over tags drawn from `tags`.
fn ops(rng: &mut SimRng, len: usize, tags: &[u64]) -> Vec<Op> {
    (0..len)
        .map(|_| {
            if rng.chance(0.5) {
                Op::Update {
                    tag: tags[rng.index(tags.len())],
                    next: tags[rng.index(tags.len())],
                    pointer: rng.below(1000),
                }
            } else {
                Op::Lookup {
                    tag: tags[rng.index(tags.len())],
                }
            }
        })
        .collect()
}

/// Drives `eit` and `model` through `ops`, asserting that they agree on
/// every eviction, every probe and every lookup: same presence, same
/// entries in the same LRU order, same pointers. Returns the number of
/// evictions.
fn check(eit: &mut Eit, model: &mut dyn Model, ops: &[Op], case: &str) -> usize {
    let mut evictions = 0;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Update { tag, next, pointer } => {
                let got = eit
                    .update(LineAddr::new(tag), LineAddr::new(next), pointer)
                    .map(|t| t.raw());
                let want = model.update(tag, next, pointer);
                assert_eq!(got, want, "{case}, op {i}: eviction diverged at tag {tag}");
                evictions += usize::from(got.is_some());
            }
            Op::Lookup { tag } => {
                let probed = eit.probe(LineAddr::new(tag));
                let got = eit.lookup(LineAddr::new(tag)).map(|se| {
                    se.entries()
                        .iter()
                        .map(|e| (e.addr.raw(), e.pointer))
                        .collect::<Vec<_>>()
                });
                let want = model.lookup(tag);
                assert_eq!(probed, want.is_some(), "{case}, op {i}: probe of {tag}");
                assert_eq!(got, want, "{case}, op {i}: lookup diverged at tag {tag}");
            }
        }
    }
    evictions
}

/// The EIT agrees with the reference models on two kinds of input.
///
/// * Tiny tables over a small tag space: every row conflicts, so both
///   LRU levels evict constantly. The same ops then drive the unbounded
///   table (`rows == 0`), which keeps one super-entry per tag and never
///   evicts, whatever the row capacity says.
/// * Wide tags from a pool of a few thousand, in 4,096 rows, where tags
///   still share rows, in the paper's 2 M rows, where they almost never
///   do, and unbounded. Thousands of distinct rows get written, so the
///   row map resizes many times mid-run.
#[test]
fn eit_matches_reference_model() {
    let small_tags: Vec<u64> = (0..24).collect();
    for case in 0..96u64 {
        let mut rng = SimRng::seed(0xE17_0000 + case);
        let len = 1 + rng.index(400);
        let ops = ops(&mut rng, len, &small_tags);
        let cfg = EitConfig {
            rows: 1 + rng.index(5),
            super_entries_per_row: 1 + rng.index(3),
            entries_per_super: 1 + rng.index(3),
        };
        let label = format!("case {case}");
        check(&mut Eit::new(cfg), reference(&cfg).as_mut(), &ops, &label);
        let unbounded = EitConfig { rows: 0, ..cfg };
        let label = format!("{label}, unbounded");
        check(
            &mut Eit::new(unbounded),
            reference(&unbounded).as_mut(),
            &ops,
            &label,
        );
    }
    let scales = [4096usize, 1 << 21, 0, 4096, 1 << 21, 0];
    for (case, rows) in scales.into_iter().enumerate() {
        let mut rng = SimRng::seed(0xE17_5CA1 + case as u64);
        let pool = 1000 + rng.index(7000);
        let wide_tags: Vec<u64> = (0..pool).map(|_| rng.next_u64()).collect();
        let len = 4000 + rng.index(4000);
        let ops = ops(&mut rng, len, &wide_tags);
        let cfg = EitConfig {
            rows,
            super_entries_per_row: 1 + rng.index(4),
            entries_per_super: 1 + rng.index(3),
        };
        let label = format!("{rows} rows, case {case}");
        check(&mut Eit::new(cfg), reference(&cfg).as_mut(), &ops, &label);
    }
}

/// Rows filled far past their super-entry capacity at the paper's
/// per-row geometry (four super-entries of three entries), with lookups
/// and probes between updates reordering each row's LRU. Every eviction
/// hands the victim's slot to the newcomer; the EIT must still agree
/// with the reference model on every victim and every lookup.
#[test]
fn overfull_rows_match_reference_model() {
    for case in 0..32u64 {
        let mut rng = SimRng::seed(0xE17_F011 + case);
        let cfg = EitConfig {
            rows: 1 + rng.index(4),
            ..EitConfig::default()
        };
        // Three tags for every super-entry slot the table has.
        let tags: Vec<u64> = (0..(3 * cfg.rows * cfg.super_entries_per_row) as u64).collect();
        let ops = ops(&mut rng, 2000, &tags);
        let label = format!("overfull case {case}");
        let evictions = check(&mut Eit::new(cfg), reference(&cfg).as_mut(), &ops, &label);
        assert!(evictions > 0, "{label}: no row overflowed");
    }
}

/// The unbounded EIT never loses a tag and its most-recent entry is
/// always the latest update for that tag.
#[test]
fn unbounded_eit_remembers_latest() {
    for case in 0..96u64 {
        let mut rng = SimRng::seed(0x0B0_0000 + case);
        let len = 1 + rng.index(300);
        let updates: Vec<(u64, u64, u64)> = (0..len)
            .map(|_| (rng.below(16), rng.below(64), rng.below(1000)))
            .collect();
        let mut eit = Eit::new(EitConfig::unbounded());
        let mut latest: std::collections::HashMap<u64, (u64, u64)> =
            std::collections::HashMap::new();
        for &(tag, next, pointer) in &updates {
            eit.update(LineAddr::new(tag), LineAddr::new(next), pointer);
            latest.insert(tag, (next, pointer));
        }
        for (&tag, &(next, pointer)) in &latest {
            let se = eit.lookup(LineAddr::new(tag)).expect("tag present");
            let mr = se.most_recent().expect("entries present");
            assert_eq!(mr.addr.raw(), next);
            assert_eq!(mr.pointer, pointer);
        }
    }
}
