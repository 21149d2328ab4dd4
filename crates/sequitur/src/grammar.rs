//! The Sequitur grammar-inference algorithm.
//!
//! Sequitur reads one symbol at a time and maintains a context-free grammar
//! whose start rule derives exactly the input, subject to two invariants:
//!
//! 1. **digram uniqueness** — no pair of adjacent symbols appears more than
//!    once across all rule bodies (overlapping occurrences of the same pair,
//!    as in `a a a`, are exempt);
//! 2. **rule utility** — every rule other than the start rule is referenced
//!    at least twice.
//!
//! When a digram repeats, both occurrences are replaced by a (new or
//! existing) rule; when a rule's reference count falls to one, its last
//! occurrence is expanded in place. Repetitions in the input therefore
//! surface as rules — which is why prior temporal-streaming work, and the
//! Domino paper after it, use Sequitur to measure how much of a miss
//! sequence is temporally repetitive.
//!
//! The implementation mirrors the classic linked-list formulation but
//! drives all invariant repair through an explicit work queue of pending
//! digram checks, with generation-validated node handles (an internal
//! arena) rather than raw pointers.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use crate::node::{Arena, NodeRef, Payload, SymKey};

#[derive(Debug, Clone)]
pub(crate) struct RuleInfo {
    /// Guard node of the circular body list.
    pub guard: u32,
    /// Live occurrence nodes of this rule across all bodies.
    pub occurrences: Vec<u32>,
    /// Whether the rule still exists (expanded rules are retired).
    pub live: bool,
}

/// A symbol in an exported rule body: a terminal from the input alphabet or
/// a reference to another exported rule by its dense table index.
///
/// Produced by [`Sequitur::export_rules`]; consumers that serialize grammars
/// (e.g. the compressed trace codec in `domino-trace`) work with these
/// indices instead of the builder's internal, gappy rule ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportSym {
    /// A terminal symbol (an input value).
    Term(u64),
    /// A reference to the exported rule at this index.
    Rule(u32),
}

/// The symbols of one exported rule, in body order; handed out by
/// [`Sequitur::export_with`].
#[derive(Debug, Clone)]
pub struct ExportBody<'a> {
    grammar: &'a Sequitur,
    dense: &'a [u32],
    guard: u32,
    cur: u32,
}

impl Iterator for ExportBody<'_> {
    type Item = ExportSym;

    fn next(&mut self) -> Option<ExportSym> {
        if self.cur == self.guard {
            return None;
        }
        let sym = match self
            .grammar
            .arena
            .sym(self.cur)
            .expect("body nodes are symbols")
        {
            SymKey::Term(t) => ExportSym::Term(t),
            SymKey::Rule(r) => ExportSym::Rule(self.dense[r as usize]),
        };
        self.cur = self.grammar.arena.next(self.cur);
        Some(sym)
    }
}

/// Digram-index key: the values of both symbols plus one bit per symbol
/// marking a rule reference. It hashes in one 16-byte write, where the
/// derived `Hash` of a `(SymKey, SymKey)` pair made four (a discriminant
/// and a value per symbol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DigramKey {
    vals: [u64; 2],
    rules: u8,
}

impl DigramKey {
    fn new(a: SymKey, b: SymKey) -> Self {
        let parts = |s: SymKey| match s {
            SymKey::Term(t) => (t, 0u8),
            SymKey::Rule(r) => (u64::from(r), 1u8),
        };
        let ((va, ra), (vb, rb)) = (parts(a), parts(b));
        DigramKey {
            vals: [va, vb],
            rules: ra | rb << 1,
        }
    }
}

impl Hash for DigramKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // A rule reference flips its value's top bit, so a terminal below
        // 2^63 never shares a hash with a rule; equality still compares
        // the kind bits exactly.
        let a = self.vals[0] ^ u64::from(self.rules & 1) << 63;
        let b = self.vals[1] ^ u64::from(self.rules >> 1) << 63;
        state.write_u128(u128::from(a) | u128::from(b) << 64);
    }
}

/// Online Sequitur grammar builder.
///
/// See the [crate docs](crate) for an example; see
/// [`Sequitur::check_invariants`] for the invariant verifier used by the
/// test-suite.
#[derive(Debug)]
pub struct Sequitur {
    pub(crate) arena: Arena,
    pub(crate) rules: Vec<RuleInfo>,
    digrams: HashMap<DigramKey, NodeRef>,
    queue: VecDeque<NodeRef>,
    pending_underused: Vec<u32>,
    /// Emptied occurrence lists of the rules [`Sequitur::clear`] retired,
    /// handed to new rules so a reused grammar does not reallocate them.
    spare_occurrences: Vec<Vec<u32>>,
    input_len: u64,
}

impl Default for Sequitur {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequitur {
    /// Creates an empty grammar (start rule only).
    pub fn new() -> Self {
        let mut g = Sequitur {
            arena: Arena::default(),
            rules: Vec::new(),
            digrams: HashMap::new(),
            queue: VecDeque::new(),
            pending_underused: Vec::new(),
            spare_occurrences: Vec::new(),
            input_len: 0,
        };
        g.alloc_rule();
        g
    }

    /// Empties the grammar back to a lone start rule, as
    /// [`Sequitur::new`] builds it, but keeps the capacity of the node
    /// arena, the digram index and the work queues. A builder reused
    /// across inputs (the trace codec's chunk encoder) therefore stops
    /// allocating once it has seen its largest input, and builds exactly
    /// the grammar a fresh one would.
    pub fn clear(&mut self) {
        self.arena.clear();
        // Pooled in reverse, so rule i of the next input gets the list
        // rule i had: a repeated input reallocates none of them.
        for rule in self.rules.drain(..).rev() {
            let mut occurrences = rule.occurrences;
            occurrences.clear();
            self.spare_occurrences.push(occurrences);
        }
        self.digrams.clear();
        self.queue.clear();
        self.pending_underused.clear();
        self.input_len = 0;
        self.alloc_rule();
    }

    /// Builds a grammar from a whole sequence.
    pub fn from_sequence<I: IntoIterator<Item = u64>>(input: I) -> Self {
        let mut g = Sequitur::new();
        g.extend(input);
        g
    }

    /// Appends one terminal to the input and restores both invariants.
    pub fn push(&mut self, terminal: u64) {
        let guard = self.rules[0].guard;
        let last = self.arena.prev(guard);
        let n = self.insert_after(last, SymKey::Term(terminal));
        self.input_len += 1;
        if last != guard {
            self.enqueue(last);
        }
        let _ = n;
        self.drain();
    }

    /// Number of terminals consumed so far.
    pub fn input_len(&self) -> u64 {
        self.input_len
    }

    /// Number of live rules excluding the start rule.
    pub fn rule_count(&self) -> usize {
        self.rules.iter().skip(1).filter(|r| r.live).count()
    }

    /// Reconstructs the original input by expanding the start rule.
    pub fn expand(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.input_len as usize);
        self.expand_rule_into(0, &mut out);
        out
    }

    fn expand_rule_into(&self, rule: u32, out: &mut Vec<u64>) {
        let guard = self.rules[rule as usize].guard;
        let mut cur = self.arena.next(guard);
        while cur != guard {
            match self.arena.sym(cur).expect("body nodes are symbols") {
                SymKey::Term(t) => out.push(t),
                SymKey::Rule(r) => self.expand_rule_into(r, out),
            }
            cur = self.arena.next(cur);
        }
    }

    /// Body of a rule as symbol keys (used by analyses).
    pub(crate) fn rule_body(&self, rule: u32) -> Vec<SymKey> {
        let guard = self.rules[rule as usize].guard;
        let mut out = Vec::new();
        let mut cur = self.arena.next(guard);
        while cur != guard {
            out.push(self.arena.sym(cur).expect("body nodes are symbols"));
            cur = self.arena.next(cur);
        }
        out
    }

    /// Iterates over live rule ids, including the start rule `0`.
    pub(crate) fn live_rules(&self) -> impl Iterator<Item = u32> + '_ {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.live)
            .map(|(i, _)| i as u32)
    }

    /// Exports the grammar as a dense rule table for serialization.
    ///
    /// Live rules are renumbered densely in ascending-id order, so entry 0
    /// is always the start rule and every [`ExportSym::Rule`] index refers
    /// into the returned table. Expanding entry 0 (terminals emitted in
    /// order, rule references expanded recursively) reconstructs the input
    /// exactly; retired rules do not appear.
    pub fn export_rules(&self) -> Vec<Vec<ExportSym>> {
        let mut rules = Vec::new();
        self.export_with(&mut Vec::new(), |body| rules.push(body.collect()));
        rules
    }

    /// Walks the table [`Sequitur::export_rules`] returns without building
    /// it: calls `rule` once per exported rule, in table order, with that
    /// rule's symbols. `dense` is scratch for the renumbering; a caller
    /// that keeps it across calls allocates nothing here.
    pub fn export_with(&self, dense: &mut Vec<u32>, mut rule: impl FnMut(ExportBody<'_>)) {
        dense.clear();
        // Retired rules keep the filler: no live body references them.
        dense.resize(self.rules.len(), u32::MAX);
        for (index, r) in (0u32..).zip(self.live_rules()) {
            dense[r as usize] = index;
        }
        for r in self.live_rules() {
            let guard = self.rules[r as usize].guard;
            rule(ExportBody {
                grammar: self,
                dense,
                guard,
                cur: self.arena.next(guard),
            });
        }
    }

    // ------------------------------------------------------------------
    // Core machinery
    // ------------------------------------------------------------------

    fn enqueue(&mut self, id: u32) {
        let r = self.arena.node_ref(id);
        self.queue.push_back(r);
    }

    fn drain(&mut self) {
        loop {
            if let Some(r) = self.queue.pop_front() {
                if self.arena.is_valid(r) {
                    self.check_digram(r.id);
                }
                continue;
            }
            if let Some(rule) = self.pending_underused.pop() {
                let info = &self.rules[rule as usize];
                if info.live && rule != 0 && info.occurrences.len() == 1 {
                    self.expand_last_use(rule);
                }
                continue;
            }
            break;
        }
    }

    fn digram(&self, first: u32) -> Option<(SymKey, SymKey)> {
        let a = self.arena.sym(first)?;
        let b = self.arena.sym(self.arena.next(first))?;
        Some((a, b))
    }

    fn digram_key(&self, first: u32) -> Option<DigramKey> {
        let (a, b) = self.digram(first)?;
        Some(DigramKey::new(a, b))
    }

    /// Removes the digram-index entry anchored at `first`, if it is the
    /// registered occurrence.
    fn remove_digram(&mut self, first: u32) {
        if let Some(key) = self.digram_key(first) {
            if let Some(&entry) = self.digrams.get(&key) {
                if entry.id == first && self.arena.is_valid(entry) {
                    self.digrams.remove(&key);
                }
            }
        }
    }

    /// Checks the digram starting at `first`, repairing uniqueness.
    fn check_digram(&mut self, first: u32) {
        let Some(syms) = self.digram(first) else {
            return;
        };
        let key = DigramKey::new(syms.0, syms.1);
        let node_ref = self.arena.node_ref(first);
        match self.digrams.entry(key) {
            Entry::Vacant(v) => {
                v.insert(node_ref);
            }
            Entry::Occupied(mut o) => {
                let m = *o.get();
                if !self.arena.is_valid(m) {
                    // Stale entry (should not normally happen; repair).
                    o.insert(node_ref);
                    return;
                }
                if m.id == first {
                    return;
                }
                // Overlapping occurrences (e.g. `a a a`): leave the index
                // pointing at the earlier one.
                if self.arena.next(m.id) == first || self.arena.next(first) == m.id {
                    return;
                }
                self.handle_match(first, m.id, syms, key);
            }
        }
    }

    /// `first` duplicates the digram registered at `matched`.
    fn handle_match(&mut self, first: u32, matched: u32, syms: (SymKey, SymKey), key: DigramKey) {
        let m_prev = self.arena.prev(matched);
        let m_next_next = self.arena.next(self.arena.next(matched));
        let full_body_rule = if self.arena.is_guard(m_prev) && m_prev == m_next_next {
            match self.arena.slot(m_prev).payload {
                Payload::Guard(r) => Some(r),
                Payload::Sym(_) => unreachable!("guard checked above"),
            }
        } else {
            None
        };
        // The start rule is never referenced as a symbol, so it cannot be
        // "reused" even if its entire body happens to equal the digram.
        if let Some(rule) = full_body_rule.filter(|&r| r != 0) {
            // `matched` is the complete two-symbol body of an existing rule.
            self.substitute(first, rule);
        } else {
            // Create a fresh rule with the digram as its body.
            let rule = self.alloc_rule();
            let guard = self.rules[rule as usize].guard;
            let body_a = self.insert_after(guard, syms.0);
            let body_b = self.insert_after(body_a, syms.1);
            self.note_rule_use(syms.0, body_a);
            self.note_rule_use(syms.1, body_b);
            self.substitute(matched, rule);
            self.substitute(first, rule);
            // Register the rule body as the canonical occurrence of the
            // digram.
            let r = self.arena.node_ref(body_a);
            self.digrams.insert(key, r);
        }
    }

    /// Replaces the digram starting at `first` with one occurrence of
    /// `rule`.
    fn substitute(&mut self, first: u32, rule: u32) {
        let q = self.arena.prev(first);
        let second = self.arena.next(first);
        self.unlink_and_free(first);
        self.unlink_and_free(second);
        let n = self.insert_after(q, SymKey::Rule(rule));
        self.rules[rule as usize].occurrences.push(n);
        if !self.arena.is_guard(q) {
            self.enqueue(q);
        }
        self.enqueue(n);
    }

    /// Records that node `n` holds symbol `key` if it is a rule reference.
    fn note_rule_use(&mut self, key: SymKey, n: u32) {
        if let SymKey::Rule(r) = key {
            self.rules[r as usize].occurrences.push(n);
        }
    }

    /// Inserts a fresh symbol node after `after`, returning its id.
    // Inlined so that `Arena::alloc`, inlined into it, writes the symbol
    // straight into its slot (see there).
    #[inline(always)]
    fn insert_after(&mut self, after: u32, key: SymKey) -> u32 {
        let n = self.arena.alloc(Payload::Sym(key));
        let b = self.arena.next(after);
        self.arena.link(after, n);
        self.arena.link(n, b);
        n
    }

    /// Unlinks a symbol node, maintaining the digram index and rule
    /// reference counts, then frees it.
    fn unlink_and_free(&mut self, n: u32) {
        debug_assert!(!self.arena.is_guard(n), "cannot free a guard");
        let left = self.arena.prev(n);
        let right = self.arena.next(n);
        self.remove_digram(left);
        self.remove_digram(n);
        if let Some(SymKey::Rule(r)) = self.arena.sym(n) {
            let occ = &mut self.rules[r as usize].occurrences;
            if let Some(pos) = occ.iter().position(|&x| x == n) {
                occ.swap_remove(pos);
            }
            if self.rules[r as usize].live && self.rules[r as usize].occurrences.len() == 1 {
                self.pending_underused.push(r);
            }
        }
        self.arena.link(left, right);
        self.arena.free(n);
        // Repair for overlapping runs (the classic `a a a` case): deleting
        // `n` may have removed the index entry that shadowed an identical
        // digram starting at `right`; re-check it so the survivor gets
        // (re)registered. Stale queue entries are skipped by validation.
        if !self.arena.is_guard(right) {
            self.enqueue(right);
        }
    }

    fn alloc_rule(&mut self) -> u32 {
        let id = self.rules.len() as u32;
        let guard = self.arena.alloc(Payload::Guard(id));
        self.arena.link(guard, guard);
        self.rules.push(RuleInfo {
            guard,
            occurrences: self.spare_occurrences.pop().unwrap_or_default(),
            live: true,
        });
        id
    }

    /// Rule utility repair: `rule` has exactly one remaining occurrence —
    /// splice its body in place of that occurrence and retire the rule.
    fn expand_last_use(&mut self, rule: u32) {
        let n = self.rules[rule as usize].occurrences[0];
        debug_assert!(matches!(
            self.arena.sym(n),
            Some(SymKey::Rule(r)) if r == rule
        ));
        let left = self.arena.prev(n);
        let right = self.arena.next(n);
        let guard = self.rules[rule as usize].guard;
        let body_first = self.arena.next(guard);
        let body_last = self.arena.prev(guard);
        debug_assert!(body_first != guard, "rule bodies are never empty");
        // Remove index entries around the occurrence before relinking.
        self.remove_digram(left);
        self.remove_digram(n);
        // Retire the rule and its occurrence node.
        self.rules[rule as usize].occurrences.clear();
        self.rules[rule as usize].live = false;
        self.arena.free(n);
        self.arena.free(guard);
        // Splice the body between the occurrence's neighbours.
        self.arena.link(left, body_first);
        self.arena.link(body_last, right);
        // Boundary digrams may now duplicate existing ones; re-check.
        if !self.arena.is_guard(left) {
            self.enqueue(left);
        }
        self.enqueue(body_last);
    }

    // ------------------------------------------------------------------
    // Invariant verification (test support, also handy for fuzzing)
    // ------------------------------------------------------------------

    /// Verifies digram uniqueness and rule utility; returns a description
    /// of the first violation found.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a human-readable message if either Sequitur
    /// invariant does not hold.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Rule utility + occurrence bookkeeping.
        let mut observed_uses: HashMap<u32, Vec<u32>> = HashMap::new();
        for rule in self.live_rules() {
            let guard = self.rules[rule as usize].guard;
            let mut cur = self.arena.next(guard);
            while cur != guard {
                if let Some(SymKey::Rule(r)) = self.arena.sym(cur) {
                    observed_uses.entry(r).or_default().push(cur);
                }
                cur = self.arena.next(cur);
            }
        }
        for rule in self.live_rules().filter(|&r| r != 0) {
            let uses = observed_uses.get(&rule).map_or(0, Vec::len);
            if uses < 2 {
                return Err(format!("rule {rule} used {uses} times (< 2)"));
            }
            let mut recorded = self.rules[rule as usize].occurrences.clone();
            let mut observed = observed_uses[&rule].clone();
            recorded.sort_unstable();
            observed.sort_unstable();
            if recorded != observed {
                return Err(format!("rule {rule} occurrence bookkeeping diverged"));
            }
        }
        // Arena hygiene: every live node is reachable from some live rule.
        let mut reachable = 0usize;
        for rule in self.live_rules() {
            reachable += 1; // the guard
            reachable += self.rule_body(rule).len();
        }
        if reachable != self.arena.live_count() {
            return Err(format!(
                "arena leak: {} live nodes, {} reachable",
                self.arena.live_count(),
                reachable
            ));
        }
        // Digram uniqueness (overlapping same-symbol digrams exempt).
        let mut seen: HashMap<DigramKey, u32> = HashMap::new();
        for rule in self.live_rules() {
            let guard = self.rules[rule as usize].guard;
            let mut cur = self.arena.next(guard);
            while cur != guard && self.arena.next(cur) != guard {
                let key = self
                    .digram_key(cur)
                    .expect("interior body nodes form digrams");
                if let Some(&prev) = seen.get(&key) {
                    let overlapping = self.arena.next(prev) == cur || self.arena.next(cur) == prev;
                    if !overlapping {
                        let syms = self.digram(cur);
                        return Err(format!("digram {syms:?} duplicated"));
                    }
                } else {
                    seen.insert(key, cur);
                }
                cur = self.arena.next(cur);
            }
        }
        Ok(())
    }
}

impl Extend<u64> for Sequitur {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for t in iter {
            self.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(input: &[u64]) -> Sequitur {
        let g = Sequitur::from_sequence(input.iter().copied());
        assert_eq!(g.expand(), input, "expansion must reproduce input");
        g.check_invariants().expect("invariants");
        g
    }

    #[test]
    fn empty_grammar() {
        let g = Sequitur::new();
        assert_eq!(g.expand(), Vec::<u64>::new());
        assert_eq!(g.rule_count(), 0);
        g.check_invariants().unwrap();
    }

    /// Expands entry 0 of an exported rule table the way a decoder would.
    fn expand_export(rules: &[Vec<ExportSym>]) -> Vec<u64> {
        fn walk(rules: &[Vec<ExportSym>], idx: u32, out: &mut Vec<u64>) {
            for sym in &rules[idx as usize] {
                match *sym {
                    ExportSym::Term(t) => out.push(t),
                    ExportSym::Rule(r) => walk(rules, r, out),
                }
            }
        }
        let mut out = Vec::new();
        walk(rules, 0, &mut out);
        out
    }

    #[test]
    fn export_rules_round_trips_through_dense_table() {
        for input in [
            vec![],
            vec![7u64],
            vec![1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 4],
            (0..400u64).map(|i| i % 17).collect::<Vec<_>>(),
        ] {
            let g = Sequitur::from_sequence(input.iter().copied());
            let rules = g.export_rules();
            assert!(!rules.is_empty(), "start rule always exported");
            assert_eq!(rules.len(), g.rule_count() + 1);
            for body in &rules {
                for sym in body {
                    if let ExportSym::Rule(r) = sym {
                        assert!((*r as usize) < rules.len(), "dense index in range");
                        assert_ne!(*r, 0, "start rule is never referenced");
                    }
                }
            }
            assert_eq!(expand_export(&rules), input);
        }
    }

    #[test]
    fn no_repetition_no_rules() {
        let g = build(&[1, 2, 3, 4, 5]);
        assert_eq!(g.rule_count(), 0);
    }

    #[test]
    fn classic_abcdbc() {
        // From the Sequitur paper: "abcdbc" -> S = a A d A ; A = b c.
        let g = build(&[
            b'a' as u64,
            b'b' as u64,
            b'c' as u64,
            b'd' as u64,
            b'b' as u64,
            b'c' as u64,
        ]);
        assert_eq!(g.rule_count(), 1);
    }

    #[test]
    fn nested_repetition_abab() {
        // "abab" duplicates the (a,b) digram.
        let g = build(&[1, 2, 1, 2]);
        assert_eq!(g.rule_count(), 1);
    }

    #[test]
    fn triple_repetition_creates_hierarchy() {
        // "abcabcabc": expect hierarchical reuse while reproducing input.
        let g = build(&[1, 2, 3, 1, 2, 3, 1, 2, 3]);
        assert!(g.rule_count() >= 1);
    }

    #[test]
    fn overlapping_digrams_aaa() {
        let g = build(&[7, 7, 7]);
        // Overlap exemption: no rule forced.
        assert_eq!(g.rule_count(), 0);
    }

    #[test]
    fn aaaa_forms_rule() {
        let g = build(&[7, 7, 7, 7]);
        assert_eq!(g.rule_count(), 1);
    }

    #[test]
    fn long_runs_of_one_symbol() {
        for n in 1..40 {
            let input: Vec<u64> = std::iter::repeat_n(9, n).collect();
            build(&input);
        }
    }

    #[test]
    fn rule_utility_expands_superseded_rules() {
        // "abab" creates A=ab; then "ababX abab..." style inputs force rules
        // to be absorbed into bigger rules; invariants must hold throughout.
        let input = [1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 1, 2, 1, 2, 3];
        let g = build(&input);
        assert!(g.rule_count() >= 1);
    }

    fn period_two() -> Vec<u64> {
        (0..200).map(|i| (i % 2) as u64).collect()
    }

    /// Fibonacci words are repetition-rich and famously stress Sequitur.
    fn fibonacci_word() -> Vec<u64> {
        let mut s = vec![0u64];
        for _ in 0..12 {
            let mut next = Vec::with_capacity(s.len() * 2);
            for &c in &s {
                if c == 0 {
                    next.extend_from_slice(&[0, 1]);
                } else {
                    next.push(0);
                }
            }
            s = next;
        }
        s
    }

    /// Twenty copies of one 50-symbol block.
    fn repeated_blocks() -> Vec<u64> {
        let block: Vec<u64> = (100..150).collect();
        let mut input = Vec::new();
        for _ in 0..20 {
            input.extend_from_slice(&block);
        }
        input
    }

    #[test]
    fn pathological_period_two() {
        build(&period_two());
    }

    #[test]
    fn pathological_fibonacci_word() {
        build(&fibonacci_word());
    }

    #[test]
    fn cleared_grammar_rebuilds_exactly_what_a_fresh_one_builds() {
        let inputs = [
            vec![7u64, 7, 7, 7],
            period_two(),
            fibonacci_word(),
            repeated_blocks(),
        ];
        // One grammar for every input, back to back, twice over, so each
        // input follows both smaller and larger ones.
        let mut g = Sequitur::new();
        for input in inputs.iter().chain(&inputs) {
            g.clear();
            g.extend(input.iter().copied());
            let fresh = Sequitur::from_sequence(input.iter().copied());
            assert_eq!(g.export_rules(), fresh.export_rules());
            assert_eq!(g.expand(), *input);
            assert_eq!(g.input_len(), input.len() as u64);
            g.check_invariants().expect("invariants after clear");
        }
        g.clear();
        assert_eq!(g.expand(), Vec::<u64>::new());
        assert_eq!(g.rule_count(), 0);
        g.check_invariants()
            .expect("invariants of a cleared grammar");
    }

    #[test]
    fn incremental_pushes_match_batch_build() {
        let input = [5u64, 6, 5, 6, 7, 5, 6, 5, 6, 7];
        let mut g = Sequitur::new();
        for (i, &t) in input.iter().enumerate() {
            g.push(t);
            assert_eq!(g.expand(), &input[..=i], "prefix after push {i}");
            g.check_invariants().unwrap();
        }
    }

    #[test]
    fn input_len_counts_terminals() {
        let g = build(&[1, 1, 2, 2, 1, 1]);
        assert_eq!(g.input_len(), 6);
    }

    #[test]
    fn compresses_repeated_blocks() {
        let input = repeated_blocks();
        let g = build(&input);
        // Grammar should be far smaller than the input.
        let grammar_symbols: usize = g.live_rules().map(|r| g.rule_body(r).len()).sum();
        assert!(
            grammar_symbols < input.len() / 3,
            "grammar {grammar_symbols} symbols vs input {}",
            input.len()
        );
    }
}
