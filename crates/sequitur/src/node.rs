//! Generation-stamped node arena for the grammar's doubly-linked rule
//! bodies.
//!
//! Sequitur mutates its linked structure aggressively (digram substitution,
//! rule expansion), which in Rust is most safely expressed with an index
//! arena. Every slot carries a generation counter, so a [`NodeRef`] held in
//! the digram index or the pending-check queue can be validated before use
//! instead of dangling.

/// Sentinel index meaning "no node".
pub(crate) const NIL: u32 = u32::MAX;

/// A grammar symbol: terminal value or a reference to a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymKey {
    /// A terminal (for the prefetching use-case: a cache-line address).
    Term(u64),
    /// A non-terminal referring to rule `RuleId`.
    Rule(u32),
}

/// Node payload: either a list guard (head of a rule body) or a symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Payload {
    /// Guard node of the given rule's circular body list.
    Guard(u32),
    /// An actual symbol occurrence.
    Sym(SymKey),
}

#[derive(Debug, Clone)]
pub(crate) struct Slot {
    pub payload: Payload,
    pub prev: u32,
    pub next: u32,
    pub gen: u32,
    pub live: bool,
}

/// A validated handle to an arena node: index plus generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef {
    pub(crate) id: u32,
    pub(crate) gen: u32,
}

/// Arena of linked-list nodes with a free list.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl Arena {
    /// Empties the arena, keeping its capacity: the next `alloc` returns
    /// id 0, exactly as on a fresh arena.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    // Inlined into every caller so the payload, built from a constant
    // variant there, is written into the slot field by field. Out of line
    // it is built on the stack and copied with one 16-byte load that stalls
    // on the narrower stores that just wrote it.
    #[inline(always)]
    pub fn alloc(&mut self, payload: Payload) -> u32 {
        if let Some(id) = self.free.pop() {
            let slot = &mut self.slots[id as usize];
            slot.payload = payload;
            slot.prev = NIL;
            slot.next = NIL;
            slot.live = true;
            id
        } else {
            let id = self.slots.len() as u32;
            assert!(id < NIL, "arena exhausted");
            self.slots.push(Slot {
                payload,
                prev: NIL,
                next: NIL,
                gen: 0,
                live: true,
            });
            id
        }
    }

    /// Marks a node dead and bumps its generation so stale refs fail
    /// validation.
    pub fn free(&mut self, id: u32) {
        let slot = &mut self.slots[id as usize];
        debug_assert!(slot.live, "double free of node {id}");
        slot.live = false;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id);
    }

    pub fn slot(&self, id: u32) -> &Slot {
        &self.slots[id as usize]
    }

    pub fn next(&self, id: u32) -> u32 {
        self.slots[id as usize].next
    }

    pub fn prev(&self, id: u32) -> u32 {
        self.slots[id as usize].prev
    }

    pub fn is_guard(&self, id: u32) -> bool {
        matches!(self.slots[id as usize].payload, Payload::Guard(_))
    }

    /// Symbol key of a node; `None` for guards.
    pub fn sym(&self, id: u32) -> Option<SymKey> {
        match self.slots[id as usize].payload {
            Payload::Guard(_) => None,
            Payload::Sym(k) => Some(k),
        }
    }

    pub fn node_ref(&self, id: u32) -> NodeRef {
        NodeRef {
            id,
            gen: self.slots[id as usize].gen,
        }
    }

    pub fn is_valid(&self, r: NodeRef) -> bool {
        let slot = &self.slots[r.id as usize];
        slot.live && slot.gen == r.gen
    }

    /// Links `a -> b` (both directions).
    pub fn link(&mut self, a: u32, b: u32) {
        self.slots[a as usize].next = b;
        self.slots[b as usize].prev = a;
    }

    /// Number of live nodes (diagnostics / tests).
    pub fn live_count(&self) -> usize {
        self.slots.iter().filter(|s| s.live).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_count_tracks_alloc_free() {
        let mut arena = Arena::default();
        let a = arena.alloc(Payload::Sym(SymKey::Term(1)));
        let _b = arena.alloc(Payload::Sym(SymKey::Term(2)));
        assert_eq!(arena.live_count(), 2);
        arena.free(a);
        assert_eq!(arena.live_count(), 1);
    }

    #[test]
    fn alloc_free_recycles_with_new_generation() {
        let mut arena = Arena::default();
        let a = arena.alloc(Payload::Sym(SymKey::Term(1)));
        let r = arena.node_ref(a);
        assert!(arena.is_valid(r));
        arena.free(a);
        assert!(!arena.is_valid(r));
        let b = arena.alloc(Payload::Sym(SymKey::Term(2)));
        assert_eq!(a, b, "free list should recycle");
        assert!(!arena.is_valid(r), "stale ref must stay invalid");
    }

    #[test]
    fn link_is_bidirectional() {
        let mut arena = Arena::default();
        let a = arena.alloc(Payload::Guard(0));
        let b = arena.alloc(Payload::Sym(SymKey::Term(7)));
        arena.link(a, b);
        assert_eq!(arena.next(a), b);
        assert_eq!(arena.prev(b), a);
    }

    #[test]
    fn guards_have_no_symbol() {
        let mut arena = Arena::default();
        let g = arena.alloc(Payload::Guard(3));
        let s = arena.alloc(Payload::Sym(SymKey::Rule(3)));
        assert_eq!(arena.sym(g), None);
        assert_eq!(arena.sym(s), Some(SymKey::Rule(3)));
        assert!(arena.is_guard(g));
        assert!(!arena.is_guard(s));
    }
}
