//! The off-chip History Table (HT) shared by global-history temporal
//! prefetchers (STMS, Digram, Domino).
//!
//! The HT is "a circular buffer [whose rows contain] a sequence of
//! consecutive data misses as observed by the core" (paper §III-A). Rows
//! hold a cache block worth of addresses — 12 entries in the paper's
//! Domino configuration ("every 12 entries ... are placed into a row of
//! the HT"). Reading any part of a row costs one off-chip block transfer.
//!
//! Each entry also carries a *stream-head* flag: whether the recorded
//! triggering event was a demand miss (as opposed to a prefetch hit).
//! The stream-end detection heuristic the paper borrows from STMS stops
//! replay when it reaches the point where the original traversal itself
//! missed — i.e. at the next stream head.

use domino_trace::addr::LineAddr;

/// Addresses per HT row (one 64-byte block at ~5.3 bytes per pointer-less
/// compressed entry, as in the paper's 85 MB / 16 M-entry sizing).
pub const ROW_ENTRIES: usize = 12;

/// One logged triggering event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryEntry {
    /// The miss (or prefetch-hit) address.
    pub line: LineAddr,
    /// Whether this event started a stream (was a demand miss).
    pub stream_head: bool,
}

/// Append-only circular history of triggering events.
///
/// Positions are *global sequence numbers*: they keep growing forever, and
/// a position is readable only while it has not been overwritten.
///
/// Storage is one line per slot (8 bytes, as the paper's rows pack bare
/// addresses) plus one stream-head bit per slot in a parallel bitset.
/// The flag cannot borrow a bit of the line: every `u64` is a valid
/// [`LineAddr`].
///
/// ```
/// use domino_mem::history::HistoryTable;
/// use domino_trace::addr::LineAddr;
///
/// let mut ht = HistoryTable::new(1024);
/// let p = ht.append(LineAddr::new(7), true);
/// assert_eq!(ht.get(p).unwrap().line, LineAddr::new(7));
/// ```
#[derive(Debug, Clone)]
pub struct HistoryTable {
    /// Logged lines. Slot = position in an unbounded table, position %
    /// capacity in a bounded ring (which grows until full, then
    /// overwrites in place).
    lines: Vec<LineAddr>,
    /// Stream-head flags: slot `i` is bit `i % 64` of word `i / 64`.
    heads: Vec<u64>,
    /// Total entries ever appended.
    appended: u64,
    /// Ring capacity (entries). `0` means unbounded (grow forever).
    capacity: usize,
}

impl HistoryTable {
    /// Creates a history with room for `capacity` entries
    /// (`0` = unbounded, the paper's idealized STMS/Digram setting).
    pub fn new(capacity: usize) -> Self {
        HistoryTable {
            lines: Vec::new(),
            heads: Vec::new(),
            appended: 0,
            capacity,
        }
    }

    /// The paper's Domino sizing: 16 M entries.
    pub fn paper() -> Self {
        HistoryTable::new(16 * 1024 * 1024)
    }

    /// Pre-sizes the storage for `expected_appends` further appends, so
    /// the append path never reallocates mid-run. Bounded rings reserve
    /// at most their remaining fill distance (a full ring overwrites in
    /// place and needs nothing).
    pub fn reserve(&mut self, expected_appends: usize) {
        let grow = if self.capacity == 0 {
            expected_appends
        } else {
            expected_appends.min(self.capacity - self.lines.len())
        };
        self.lines.reserve(grow);
        let words = (self.lines.len() + grow).div_ceil(64);
        self.heads.reserve(words - self.heads.len());
    }

    /// The storage slot of `pos`: the position itself until a bounded
    /// ring first wraps, which spares the replay path a division.
    fn slot(&self, pos: u64) -> usize {
        if self.capacity == 0 || pos < self.capacity as u64 {
            pos as usize
        } else {
            (pos % self.capacity as u64) as usize
        }
    }

    /// Appends an event; returns its global position.
    pub fn append(&mut self, line: LineAddr, stream_head: bool) -> u64 {
        let pos = self.appended;
        let slot = if self.capacity == 0 || self.lines.len() < self.capacity {
            let slot = self.lines.len();
            self.lines.push(line);
            if slot.is_multiple_of(64) {
                self.heads.push(0);
            }
            slot
        } else {
            let slot = self.slot(pos);
            self.lines[slot] = line;
            slot
        };
        let bit = 1u64 << (slot % 64);
        let word = &mut self.heads[slot / 64];
        if stream_head {
            *word |= bit;
        } else {
            *word &= !bit;
        }
        self.appended += 1;
        pos
    }

    /// Total events appended so far (= next position).
    pub fn len(&self) -> u64 {
        self.appended
    }

    /// Bytes of line and flag storage currently in use (entries live,
    /// not reserved capacity): 8 bytes per entry plus one `u64` flag
    /// word per 64 entries. The history's share of
    /// `Prefetcher::footprint_bytes`.
    pub fn footprint_bytes(&self) -> usize {
        self.lines.len() * std::mem::size_of::<LineAddr>()
            + self.heads.len() * std::mem::size_of::<u64>()
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.appended == 0
    }

    /// Whether `pos` is still resident (not overwritten).
    pub fn is_live(&self, pos: u64) -> bool {
        if pos >= self.appended {
            return false;
        }
        if self.capacity == 0 {
            true
        } else {
            self.appended - pos <= self.capacity as u64
        }
    }

    /// Reads the entry at `pos` if still resident.
    pub fn get(&self, pos: u64) -> Option<HistoryEntry> {
        if !self.is_live(pos) {
            return None;
        }
        let slot = self.slot(pos);
        Some(HistoryEntry {
            line: self.lines[slot],
            stream_head: (self.heads[slot / 64] >> (slot % 64)) & 1 == 1,
        })
    }

    /// Row number containing `pos` (rows are [`ROW_ENTRIES`] wide).
    pub fn row_of(pos: u64) -> u64 {
        pos / ROW_ENTRIES as u64
    }

    /// Reads up to `n` successors of `pos` (entries at `pos+1 ..`),
    /// stopping at the present. Returns the successors and the number of
    /// distinct HT *rows* touched — each row is one off-chip block read.
    pub fn successors(&self, pos: u64, n: usize) -> (Vec<HistoryEntry>, u32) {
        let mut out = Vec::with_capacity(n);
        let mut rows_touched = 0u32;
        let mut last_row = None;
        for p in (pos + 1)..(pos + 1 + n as u64) {
            let Some(e) = self.get(p) else { break };
            let row = Self::row_of(p);
            if last_row != Some(row) {
                rows_touched += 1;
                last_row = Some(row);
            }
            out.push(e);
        }
        (out, rows_touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn append_and_read_back() {
        let mut ht = HistoryTable::new(16);
        for i in 0..10 {
            let p = ht.append(line(i), i % 3 == 0);
            assert_eq!(p, i);
        }
        assert_eq!(ht.get(4).unwrap().line, line(4));
        assert!(ht.get(3).unwrap().stream_head);
        assert!(!ht.get(4).unwrap().stream_head);
    }

    #[test]
    fn circular_overwrite_invalidates_old_positions() {
        let mut ht = HistoryTable::new(4);
        for i in 0..10 {
            ht.append(line(i), false);
        }
        assert!(!ht.is_live(5), "overwritten");
        assert!(ht.is_live(6));
        assert_eq!(ht.get(9).unwrap().line, line(9));
        assert_eq!(ht.get(2), None);
    }

    #[test]
    fn overwrite_replaces_the_stream_head_flag() {
        let mut ht = HistoryTable::new(3);
        for i in 0..3 {
            ht.append(line(i), true);
        }
        ht.append(line(3), false); // overwrites position 0's slot
        ht.append(line(u64::MAX), true);
        assert!(!ht.get(3).unwrap().stream_head, "stale flag survived");
        assert!(ht.get(2).unwrap().stream_head);
        let top = ht.get(4).unwrap();
        assert_eq!((top.line, top.stream_head), (line(u64::MAX), true));
    }

    #[test]
    fn unbounded_keeps_everything() {
        let mut ht = HistoryTable::new(0);
        for i in 0..1000 {
            ht.append(line(i), false);
        }
        assert!(ht.is_live(0));
        assert_eq!(ht.get(0).unwrap().line, line(0));
    }

    #[test]
    fn successors_stop_at_present() {
        let mut ht = HistoryTable::new(0);
        for i in 0..5 {
            ht.append(line(i), false);
        }
        let (succ, _rows) = ht.successors(2, 10);
        assert_eq!(succ.len(), 2);
        assert_eq!(succ[0].line, line(3));
        assert_eq!(succ[1].line, line(4));
    }

    #[test]
    fn successors_count_row_crossings() {
        let mut ht = HistoryTable::new(0);
        for i in 0..(ROW_ENTRIES as u64 * 2) {
            ht.append(line(i), false);
        }
        // Successors of the last entry of row 0 span into row 1 only.
        let (succ, rows) = ht.successors(ROW_ENTRIES as u64 - 1, 4);
        assert_eq!(succ.len(), 4);
        assert_eq!(rows, 1);
        // Successors starting mid-row-0 cross into row 1: two rows.
        let (succ, rows) = ht.successors(ROW_ENTRIES as u64 - 3, 4);
        assert_eq!(succ.len(), 4);
        assert_eq!(rows, 2);
    }

    #[test]
    fn footprint_is_eight_bytes_per_entry_plus_flag_words() {
        let mut ht = HistoryTable::new(0);
        assert_eq!(ht.footprint_bytes(), 0);
        for i in 0..100 {
            ht.append(line(i), i % 2 == 0);
        }
        assert_eq!(ht.footprint_bytes(), 100 * 8 + 2 * 8);
        // A full ring stops growing: 70 lines, two flag words.
        let mut ring = HistoryTable::new(70);
        for i in 0..200 {
            ring.append(line(i), true);
        }
        assert_eq!(ring.footprint_bytes(), 70 * 8 + 2 * 8);
    }

    #[test]
    fn row_of_matches_width() {
        assert_eq!(HistoryTable::row_of(0), 0);
        assert_eq!(HistoryTable::row_of(ROW_ENTRIES as u64 - 1), 0);
        assert_eq!(HistoryTable::row_of(ROW_ENTRIES as u64), 1);
    }
}
