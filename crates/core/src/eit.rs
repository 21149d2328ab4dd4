//! The Enhanced Index Table (paper §III-B, Figures 7 and 8).
//!
//! A conventional Index Table maps a miss address to a pointer into the
//! History Table. Domino's EIT is indexed by a *single* miss address but
//! each tag's **super-entry** holds several `(address, pointer)`
//! **entries**, where `address` is a miss that has *followed* the tag and
//! `pointer` locates that continuation in the History Table. This gives
//! Domino both halves of its lookup from one table read:
//!
//! * the most recent entry's `address` *is* the predicted next miss — it
//!   can be prefetched immediately, one round trip after the miss;
//! * when the next triggering event arrives, matching it against the
//!   entries *is* the two-address lookup, selecting the right stream
//!   without touching a second index.
//!
//! Rows hold a few super-entries and each super-entry a few entries
//! (three in the paper's configuration); both levels are managed LRU,
//! exactly as Figure 7 shows ("the most recent super-entry in this row",
//! "the most recent entry of 'A'").

use domino_trace::addr::LineAddr;
use domino_trace::FxHashMap;

/// One `(address, pointer)` pair: `address` followed the tag in the miss
/// stream, `pointer` is the History Table position of that `address`
/// occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EitEntry {
    /// The miss that followed the super-entry's tag.
    pub addr: LineAddr,
    /// History Table position of that `addr` occurrence.
    pub pointer: u64,
}

/// A borrowed view of one super-entry, as returned by [`Eit::lookup`].
///
/// Reads the entries in place (`most_recent`, `find`, `entries`) without
/// copying them out of the table.
#[derive(Debug, Clone, Copy)]
pub struct SuperEntryRef<'a> {
    /// The indexed miss address.
    pub tag: LineAddr,
    entries: &'a [EitEntry],
}

impl<'a> SuperEntryRef<'a> {
    /// The most recent continuation — Domino's immediate prediction.
    pub fn most_recent(&self) -> Option<&'a EitEntry> {
        self.entries.last()
    }

    /// Finds the entry whose address matches the next triggering event
    /// (the two-address lookup).
    pub fn find(&self, addr: LineAddr) -> Option<&'a EitEntry> {
        self.entries.iter().rev().find(|e| e.addr == addr)
    }

    /// All entries, oldest first (analysis/tests).
    pub fn entries(&self) -> &'a [EitEntry] {
        self.entries
    }
}

/// EIT geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EitConfig {
    /// Number of rows; `0` = unbounded (idealized, used by the Figure 9
    /// sensitivity sweep where the EIT is unlimited).
    pub rows: usize,
    /// Super-entries per row (LRU within the row).
    pub super_entries_per_row: usize,
    /// Entries per super-entry (LRU; the paper uses three).
    pub entries_per_super: usize,
}

impl Default for EitConfig {
    fn default() -> Self {
        EitConfig {
            rows: 2 * 1024 * 1024,
            super_entries_per_row: 4,
            entries_per_super: 3,
        }
    }
}

impl EitConfig {
    /// Unbounded EIT (capacity never evicts).
    pub fn unbounded() -> Self {
        EitConfig {
            rows: 0,
            ..EitConfig::default()
        }
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics if per-row or per-super-entry capacities are zero.
    pub fn validate(&self) {
        assert!(self.super_entries_per_row > 0, "row needs super-entries");
        assert!(self.entries_per_super > 0, "super-entry needs entries");
    }
}

/// The EIT's one backing: a sparse map from row key to a row of
/// super-entry slot ids, over a flat slab of super-entry slots.
///
/// The row key is the tag's row (`row_index`) in a finite table. In the
/// unbounded table (`rows == 0`) the key is the tag itself and each row
/// holds a single slot id, so every tag owns its row: rows never conflict
/// and nothing is ever evicted.
///
/// Each written row owns `super_cap` 4-byte slot ids at a fixed stride,
/// its occupied prefix kept in LRU order (oldest first). A slot is a
/// tag, an entry count, and `entry_cap` inline [`EitEntry`] slots in
/// the parallel `entries` slab, occupied prefix oldest-first. Slots are
/// carved one per new tag, so a row costs its ids plus one slot per tag
/// it has held at once — almost every written row holds one tag. A tag
/// evicted by capacity pressure hands its slot to the newcomer in place,
/// so row-level LRU rotates ids, and only the entry-level LRU moves
/// entries.
///
/// A row gets its map entry and its ids on its first write, so the
/// table costs memory and set-up in proportion to the rows it has
/// written: an empty 2 M-row table allocates nothing. Once the working
/// set of rows is warm the table performs no further heap allocation.
#[derive(Debug)]
struct RowSlab {
    /// Row count of a finite table; `0` keys rows by tag.
    rows: usize,
    /// Row key → row id, for rows written at least once.
    row_ids: FxHashMap<u64, u32>,
    /// Per-row count of occupied slot ids.
    occ: Vec<u8>,
    /// Slot ids; row `r` owns `[r*super_cap, (r+1)*super_cap)`,
    /// occupied prefix oldest-first.
    ids: Vec<u32>,
    /// Super-entry tags, one per slot.
    tags: Vec<LineAddr>,
    /// Entry counts, parallel to `tags`.
    lens: Vec<u8>,
    /// Inline entry storage; slot `s` owns
    /// `[s*entry_cap, (s+1)*entry_cap)`, occupied prefix oldest-first.
    entries: Vec<EitEntry>,
    super_cap: usize,
    entry_cap: usize,
}

impl RowSlab {
    fn new(cfg: &EitConfig) -> Self {
        // An unbounded row only ever holds its own tag.
        let super_cap = if cfg.rows == 0 {
            1
        } else {
            cfg.super_entries_per_row
        };
        let entry_cap = cfg.entries_per_super;
        assert!(super_cap <= u8::MAX as usize, "row capacity too large");
        assert!(entry_cap <= u8::MAX as usize, "entry capacity too large");
        RowSlab {
            rows: cfg.rows,
            row_ids: FxHashMap::default(),
            occ: Vec::new(),
            ids: Vec::new(),
            tags: Vec::new(),
            lens: Vec::new(),
            entries: Vec::new(),
            super_cap,
            entry_cap,
        }
    }

    /// The key of the row `tag` maps to.
    fn key(&self, tag: LineAddr) -> u64 {
        if self.rows == 0 {
            tag.raw()
        } else {
            row_index(tag, self.rows)
        }
    }

    /// The id of `tag`'s row, if the row has been written.
    fn row_of(&self, tag: LineAddr) -> Option<usize> {
        self.row_ids.get(&self.key(tag)).map(|&r| r as usize)
    }

    /// The id of `tag`'s row, giving it ids on first write.
    fn row_for(&mut self, tag: LineAddr) -> usize {
        let key = self.key(tag);
        let fresh = self.occ.len();
        let id = self
            .row_ids
            .entry(key)
            .or_insert_with(|| u32::try_from(fresh).expect("EIT row count exceeds u32::MAX"));
        let r = *id as usize;
        if r == fresh {
            self.occ.push(0);
            self.ids.resize(self.ids.len() + self.super_cap, 0);
        }
        r
    }

    /// Carves a fresh, empty slot for `tag`.
    fn new_slot(&mut self, tag: LineAddr) -> u32 {
        let id = u32::try_from(self.tags.len()).expect("EIT slot count exceeds u32::MAX");
        self.tags.push(tag);
        self.lens.push(0);
        let empty = EitEntry {
            addr: LineAddr::default(),
            pointer: 0,
        };
        self.entries
            .resize(self.entries.len() + self.entry_cap, empty);
        id
    }

    /// Position of `tag` among the `occ` occupied ids of the row at
    /// `base`.
    fn find(&self, base: usize, occ: usize, tag: LineAddr) -> Option<usize> {
        self.ids[base..base + occ]
            .iter()
            .position(|&s| self.tags[s as usize] == tag)
    }

    /// Promotes the id at `pos` to the MRU end of the row's occupied
    /// prefix `[base, base + occ)`; returns that id.
    fn promote(&mut self, base: usize, pos: usize, occ: usize) -> usize {
        self.ids[base + pos..base + occ].rotate_left(1);
        self.ids[base + occ - 1] as usize
    }

    fn lookup(&mut self, tag: LineAddr) -> Option<SuperEntryRef<'_>> {
        let r = self.row_of(tag)?;
        let base = r * self.super_cap;
        let occ = self.occ[r] as usize;
        let pos = self.find(base, occ, tag)?;
        let slot = self.promote(base, pos, occ);
        let len = self.lens[slot] as usize;
        let eb = slot * self.entry_cap;
        Some(SuperEntryRef {
            tag,
            entries: &self.entries[eb..eb + len],
        })
    }

    fn probe(&self, tag: LineAddr) -> bool {
        let Some(r) = self.row_of(tag) else {
            return false;
        };
        self.find(r * self.super_cap, self.occ[r] as usize, tag)
            .is_some()
    }

    /// Records `tag → (next, pointer)`; both LRU levels behave exactly
    /// like the nested-`Vec` layout. Returns an evicted tag, if any.
    fn update(&mut self, tag: LineAddr, next: LineAddr, pointer: u64) -> Option<LineAddr> {
        let r = self.row_for(tag);
        let base = r * self.super_cap;
        let occ = self.occ[r] as usize;
        let mut evicted = None;
        let slot = match self.find(base, occ, tag) {
            Some(pos) => {
                // Injected bug for the checker self-test: a refreshed
                // super-entry stays at its old LRU position, so capacity
                // evictions later pick the wrong victim.
                #[cfg(domino_mutate)]
                let skip_promotion = domino_telemetry::mutate_active("eit_skip_promotion");
                #[cfg(not(domino_mutate))]
                let skip_promotion = false;
                if skip_promotion {
                    self.ids[base + pos] as usize
                } else {
                    self.promote(base, pos, occ)
                }
            }
            None if occ == self.super_cap => {
                // The LRU tag's slot becomes the newcomer's, now MRU.
                let slot = self.promote(base, 0, occ);
                evicted = Some(std::mem::replace(&mut self.tags[slot], tag));
                self.lens[slot] = 0;
                slot
            }
            None => {
                let id = self.new_slot(tag);
                self.ids[base + occ] = id;
                self.occ[r] += 1;
                id as usize
            }
        };
        let e = self.entry_cap;
        let len = self.lens[slot] as usize;
        let block = &mut self.entries[slot * e..(slot + 1) * e];
        let fresh = EitEntry {
            addr: next,
            pointer,
        };
        if let Some(p) = block[..len].iter().position(|en| en.addr == next) {
            block[p..len].rotate_left(1);
            block[len - 1] = fresh;
        } else if len == e {
            block.rotate_left(1);
            block[e - 1] = fresh;
        } else {
            block[len] = fresh;
            self.lens[slot] = len as u8 + 1;
        }
        evicted
    }

    /// Bytes held: one map slot (key, row id, control byte) per written
    /// row plus the slabs.
    fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.row_ids.len() * (size_of::<(u64, u32)>() + 1)
            + self.occ.len()
            + self.ids.len() * size_of::<u32>()
            + self.tags.len() * size_of::<LineAddr>()
            + self.lens.len()
            + self.entries.len() * size_of::<EitEntry>()
    }
}

/// Multiplicative hash mapping a tag to one of `rows` rows.
fn row_index(tag: LineAddr, rows: usize) -> u64 {
    let h = tag.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h % rows as u64
}

/// The Enhanced Index Table.
///
/// ```
/// use domino::eit::{Eit, EitConfig};
/// use domino_trace::addr::LineAddr;
///
/// let mut eit = Eit::new(EitConfig::default());
/// eit.update(LineAddr::new(7), LineAddr::new(8), 42);
/// let se = eit.lookup(LineAddr::new(7)).unwrap();
/// assert_eq!(se.most_recent().unwrap().addr, LineAddr::new(8));
/// assert_eq!(se.most_recent().unwrap().pointer, 42);
/// ```
#[derive(Debug)]
pub struct Eit {
    cfg: EitConfig,
    rows: RowSlab,
    updates: u64,
    lookups: u64,
    hits: u64,
}

impl Eit {
    /// Creates an empty EIT. Allocates nothing until the first update.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is degenerate (see [`EitConfig::validate`]).
    pub fn new(cfg: EitConfig) -> Self {
        cfg.validate();
        Eit {
            rows: RowSlab::new(&cfg),
            cfg,
            updates: 0,
            lookups: 0,
            hits: 0,
        }
    }

    /// Looks up the super-entry for `tag` (one off-chip row read in the
    /// real design) and promotes it to MRU within its row.
    pub fn lookup(&mut self, tag: LineAddr) -> Option<SuperEntryRef<'_>> {
        self.lookups += 1;
        let found = self.rows.lookup(tag);
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Non-mutating membership probe: whether a super-entry for `tag`
    /// exists. Unlike [`Eit::lookup`] this neither promotes LRU state nor
    /// bumps counters, so observability code (the flight recorder's
    /// metadata probe) can call it without perturbing results.
    pub fn probe(&self, tag: LineAddr) -> bool {
        self.rows.probe(tag)
    }

    /// Records that `tag` was followed by `next`, whose History Table
    /// position is `pointer`. Allocates super-entries/entries LRU as the
    /// paper describes (§III-B, "Recording"). Returns the tag of a
    /// super-entry evicted by capacity pressure, if any (never in an
    /// unbounded table) — the flight recorder logs it as metadata loss.
    pub fn update(&mut self, tag: LineAddr, next: LineAddr, pointer: u64) -> Option<LineAddr> {
        self.updates += 1;
        self.rows.update(tag, next, pointer)
    }

    /// Approximate bytes of backing storage currently allocated, which
    /// grows with the rows written. O(1): computed from the row count and
    /// slab lengths, never by walking entries — the metadata service
    /// polls this after every request batch for its memory budgets.
    pub fn footprint_bytes(&self) -> usize {
        self.rows.footprint_bytes()
    }

    /// `(lookups, hits, updates)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.lookups, self.hits, self.updates)
    }

    /// Geometry.
    pub fn config(&self) -> &EitConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn small() -> Eit {
        Eit::new(EitConfig {
            rows: 16,
            super_entries_per_row: 2,
            entries_per_super: 3,
        })
    }

    #[test]
    fn update_then_lookup() {
        let mut eit = small();
        eit.update(line(1), line(2), 10);
        let se = eit.lookup(line(1)).expect("present");
        assert_eq!(se.most_recent().unwrap().addr, line(2));
        assert_eq!(se.find(line(2)).unwrap().pointer, 10);
        assert!(se.find(line(3)).is_none());
        assert!(eit.lookup(line(99)).is_none());
    }

    #[test]
    fn most_recent_entry_tracks_latest_continuation() {
        let mut eit = small();
        eit.update(line(1), line(2), 10);
        eit.update(line(1), line(3), 20);
        let se = eit.lookup(line(1)).unwrap();
        assert_eq!(se.most_recent().unwrap().addr, line(3));
        // Both continuations remain findable (the two-address lookup).
        assert_eq!(se.find(line(2)).unwrap().pointer, 10);
    }

    #[test]
    fn entry_lru_caps_at_three() {
        let mut eit = small();
        for (i, next) in [2u64, 3, 4, 5].iter().enumerate() {
            eit.update(line(1), line(*next), i as u64);
        }
        let se = eit.lookup(line(1)).unwrap();
        assert_eq!(se.entries().len(), 3);
        assert!(se.find(line(2)).is_none(), "oldest evicted");
        assert!(se.find(line(5)).is_some());
    }

    #[test]
    fn refreshing_an_entry_promotes_it() {
        let mut eit = small();
        eit.update(line(1), line(2), 10);
        eit.update(line(1), line(3), 20);
        eit.update(line(1), line(4), 30);
        eit.update(line(1), line(2), 40); // refresh 2 → MRU
        eit.update(line(1), line(5), 50); // evicts LRU (3)
        let se = eit.lookup(line(1)).unwrap();
        assert!(se.find(line(3)).is_none(), "3 was LRU");
        assert_eq!(se.find(line(2)).unwrap().pointer, 40, "refreshed pointer");
    }

    #[test]
    fn super_entry_capacity_evicts_lru_tag() {
        let mut eit = Eit::new(EitConfig {
            rows: 1, // force every tag into the same row
            super_entries_per_row: 2,
            entries_per_super: 3,
        });
        assert_eq!(eit.update(line(1), line(10), 0), None);
        assert_eq!(eit.update(line(2), line(20), 1), None);
        eit.lookup(line(1)); // promote tag 1
                             // Evicts tag 2, and reports it.
        assert_eq!(eit.update(line(3), line(30), 2), Some(line(2)));
        assert!(eit.lookup(line(2)).is_none());
        assert!(eit.lookup(line(1)).is_some());
        assert!(eit.lookup(line(3)).is_some());
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut eit = Eit::new(EitConfig {
            rows: 1,
            super_entries_per_row: 2,
            entries_per_super: 3,
        });
        eit.update(line(1), line(10), 0);
        eit.update(line(2), line(20), 1);
        let before = eit.counters();
        assert!(eit.probe(line(1)));
        assert!(!eit.probe(line(9)));
        assert_eq!(eit.counters(), before, "probe bumps no counters");
        // probe(1) did NOT promote tag 1: the next capacity eviction
        // still takes tag 1 (the LRU victim).
        assert_eq!(eit.update(line(3), line(30), 2), Some(line(1)));
    }

    #[test]
    fn unbounded_update_never_reports_eviction() {
        let mut eit = Eit::new(EitConfig::unbounded());
        for i in 0..1000u64 {
            assert_eq!(eit.update(line(i), line(i + 1), i), None);
        }
        assert!(eit.probe(line(500)));
    }

    #[test]
    fn unbounded_never_evicts_tags() {
        let mut eit = Eit::new(EitConfig::unbounded());
        for i in 0..10_000u64 {
            eit.update(line(i), line(i + 1), i);
        }
        for i in 0..10_000u64 {
            assert!(eit.lookup(line(i)).is_some(), "tag {i} lost");
        }
    }

    /// Bytes of one super-entry slot: tag, entry count, inline entries.
    fn slot_bytes(cfg: &EitConfig) -> usize {
        std::mem::size_of::<LineAddr>()
            + 1
            + cfg.entries_per_super * std::mem::size_of::<EitEntry>()
    }

    /// Bytes a written row costs besides its slots: map slot, occupancy
    /// byte and `ids` slot ids.
    fn row_bytes(ids: usize) -> usize {
        std::mem::size_of::<(u64, u32)>() + 1 + 1 + ids * std::mem::size_of::<u32>()
    }

    #[test]
    fn single_tag_rows_cost_one_slot_each() {
        let cfg = EitConfig::default();
        let mut eit = Eit::new(cfg);
        for i in 0..1000u64 {
            eit.update(line(i * 7919), line(i), i);
        }
        // Tags that share a row share its ids, so this is a ceiling.
        let per_row = row_bytes(cfg.super_entries_per_row) + slot_bytes(&cfg);
        assert!(
            eit.footprint_bytes() <= 1000 * per_row,
            "{} bytes for 1,000 single-tag rows",
            eit.footprint_bytes()
        );
        // An unbounded row is exactly one id and one slot.
        let cfg = EitConfig::unbounded();
        let mut eit = Eit::new(cfg);
        for i in 0..1000u64 {
            eit.update(line(i * 7919), line(i), i);
        }
        assert_eq!(
            eit.footprint_bytes(),
            1000 * (row_bytes(1) + slot_bytes(&cfg))
        );
    }

    #[test]
    fn evictions_reuse_slots_in_place() {
        let mut eit = Eit::new(EitConfig {
            rows: 1,
            super_entries_per_row: 4,
            entries_per_super: 3,
        });
        for i in 0..4u64 {
            eit.update(line(i), line(100 + i), i);
            eit.update(line(i), line(200 + i), i);
        }
        let full = eit.footprint_bytes();
        for i in 4..1000u64 {
            assert_eq!(eit.update(line(i), line(i + 1), i), Some(line(i - 4)));
        }
        assert_eq!(eit.rows.tags.len(), 4, "the slot slab grew");
        assert_eq!(eit.footprint_bytes(), full);
        // A reused slot starts empty: nothing of its old tag survives.
        let se = eit.lookup(line(999)).expect("newest tag resident");
        assert_eq!(
            se.entries(),
            &[EitEntry {
                addr: line(1000),
                pointer: 999
            }]
        );
    }

    #[test]
    fn footprint_grows_with_rows_written() {
        let mut eit = Eit::new(EitConfig::default());
        let mut last = eit.footprint_bytes();
        assert!(last < 4096, "a fresh paper-sized EIT holds {last} bytes");
        for i in 0..64u64 {
            eit.update(line(i), line(i + 1), i);
            let now = eit.footprint_bytes();
            assert!(now > last, "row {i} added no bytes");
            last = now;
        }
        // Refreshing written rows allocates nothing more.
        for i in 0..64u64 {
            eit.update(line(i), line(i + 2), i);
        }
        assert_eq!(eit.footprint_bytes(), last);
    }

    #[test]
    fn counters_track_activity() {
        let mut eit = small();
        eit.update(line(1), line(2), 0);
        eit.lookup(line(1));
        eit.lookup(line(9));
        let (lookups, hits, updates) = eit.counters();
        assert_eq!((lookups, hits, updates), (2, 1, 1));
    }

    #[test]
    #[should_panic(expected = "super-entry needs entries")]
    fn zero_entry_capacity_panics() {
        Eit::new(EitConfig {
            rows: 1,
            super_entries_per_row: 1,
            entries_per_super: 0,
        });
    }
}
