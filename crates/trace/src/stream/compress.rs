//! Sequitur chunk codec for `DMNOTRC1` (`codec = 1`).
//!
//! Server miss streams are highly repetitive — that repetitiveness is the
//! entire premise of temporal prefetching, and the same property makes the
//! traces compress well under grammar inference. Each chunk is encoded
//! independently so decompression stays chunk-local and bounded:
//!
//! ```text
//! dict_len  u32
//! dict      dict_len * 24-byte records   (distinct events, first-appearance order)
//! rule_len  u32
//! rules     rule_len entries: sym_len u32, then sym_len u32 symbols
//! ```
//!
//! The event sequence is first mapped to dictionary ids, a Sequitur grammar
//! is inferred over the id sequence (`crates/sequitur`), and the grammar is
//! serialized in the order of [`domino_sequitur::Sequitur::export_rules`]:
//! entry 0 is the start rule and a symbol is either a dictionary id (high
//! bit clear) or `0x8000_0000 | rule_index`. Decoding expands the start
//! rule with an explicit stack, guarded against malformed (cyclic or
//! over-producing) grammars so hostile bytes error out instead of looping
//! or ballooning.
//!
//! Chunks hold at most [`MAX_CHUNK_EVENTS`] events, so every count and id
//! the encoder stores fits below the rule bit.

use std::collections::HashMap;

use domino_sequitur::{ExportSym, Sequitur};

use crate::event::AccessEvent;
use crate::stream::format::{
    check_records, record_event, record_words, TraceFileError, MAX_CHUNK_EVENTS, RECORD_BYTES,
};

const RULE_BIT: u32 = 0x8000_0000;

const _: () = assert!(
    MAX_CHUNK_EVENTS < RULE_BIT,
    "stored ids must stay clear of RULE_BIT"
);

/// A count or id the encoder stores in a `u32` field. None exceeds the
/// chunk's event count, so the chunk bound keeps them in range; stored
/// data depends on it, hence a real check rather than a cast.
fn stored(n: usize) -> u32 {
    assert!(
        n <= MAX_CHUNK_EVENTS as usize,
        "{n} exceeds MAX_CHUNK_EVENTS ({MAX_CHUNK_EVENTS})"
    );
    u32::try_from(n).expect("MAX_CHUNK_EVENTS fits in u32")
}

/// Appends `v` as a little-endian `u32` field.
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Overwrites the `u32` field at `at` (written earlier as a placeholder).
fn patch_u32(out: &mut [u8], at: usize, v: u32) {
    out[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// The Sequitur chunk encoder, reused for every chunk of a file.
///
/// It keeps its dictionary map, its id lane and its grammar between
/// chunks, and encodes into a payload buffer its caller keeps, so it
/// allocates only when a chunk outgrows what earlier chunks left behind.
#[derive(Debug, Default)]
pub(crate) struct Encoder {
    /// Dictionary id of each distinct record, keyed by the record's three
    /// words (see [`record_words`]).
    ids_of: HashMap<[u64; 3], u32>,
    /// The chunk as dictionary ids.
    ids: Vec<u32>,
    grammar: Sequitur,
    /// Rule-renumbering scratch for [`Sequitur::export_with`].
    dense: Vec<u32>,
}

impl Encoder {
    /// Replaces the contents of `out` with `events` encoded as dictionary
    /// plus serialized grammar.
    ///
    /// # Panics
    ///
    /// If `events` holds more than [`MAX_CHUNK_EVENTS`] events.
    pub(crate) fn encode(&mut self, events: &[AccessEvent], out: &mut Vec<u8>) {
        // The bound every count and id below inherits.
        stored(events.len());
        out.clear();
        self.ids_of.clear();
        self.ids.clear();
        // Dictionary length placeholder, then each distinct record as it
        // first appears.
        put_u32(out, 0);
        for ev in events {
            let words = record_words(ev);
            let next = self.ids_of.len();
            let id = *self.ids_of.entry(words).or_insert_with(|| {
                for w in words {
                    out.extend_from_slice(&w.to_le_bytes());
                }
                stored(next)
            });
            self.ids.push(id);
        }
        patch_u32(out, 0, stored(self.ids_of.len()));

        self.grammar.clear();
        self.grammar
            .extend(self.ids.iter().map(|&id| u64::from(id)));
        let rules_at = out.len();
        put_u32(out, 0);
        let mut rules = 0;
        self.grammar.export_with(&mut self.dense, |body| {
            let len_at = out.len();
            put_u32(out, 0);
            let mut len = 0;
            for sym in body {
                let word = match sym {
                    ExportSym::Term(id) => {
                        stored(usize::try_from(id).expect("dictionary ids are u32"))
                    }
                    ExportSym::Rule(idx) => RULE_BIT | stored(idx as usize),
                };
                put_u32(out, word);
                len += 1;
            }
            patch_u32(out, len_at, stored(len));
            rules += 1;
        });
        patch_u32(out, rules_at, stored(rules));
    }
}

fn read_u32(
    bytes: &[u8],
    pos: &mut usize,
    chunk: usize,
    what: &str,
) -> Result<u32, TraceFileError> {
    let end = *pos + 4;
    if end > bytes.len() {
        return Err(TraceFileError::BadGrammar {
            chunk,
            detail: format!("payload truncated reading {what}"),
        });
    }
    let v = u32::from_le_bytes(bytes[*pos..end].try_into().expect("4 bytes"));
    *pos = end;
    Ok(v)
}

/// A `u32` field of a bounded chunk as an index.
fn index(v: u32) -> usize {
    usize::try_from(v).expect("u32 indexes fit in usize")
}

/// The Sequitur chunk decoder, reused for every chunk of a file.
///
/// It keeps one flat table of every rule body, the rule bounds and the
/// expansion stack between chunks, and expands straight into the
/// caller's buffer, so a warm decoder allocates only when a chunk
/// outgrows what earlier chunks left behind. The dictionary is never
/// copied out of the payload: it is checked in place, and each event is
/// decoded from its record image as the expansion reaches it.
#[derive(Debug, Default)]
pub(crate) struct Decoder {
    /// Every rule body, back to back, in rule order.
    syms: Vec<u32>,
    /// `[start, end)` of each rule's body in `syms`.
    bodies: Vec<(usize, usize)>,
    /// Expansion frames: the next symbol and the end of a body in `syms`.
    stack: Vec<(usize, usize)>,
}

impl Decoder {
    /// Bytes the decoder holds between chunks: its rule tables and
    /// stack. Feeds resident-memory accounting.
    pub(crate) fn held_bytes(&self) -> u64 {
        let frame = std::mem::size_of::<(usize, usize)>();
        (self.syms.capacity() * 4 + (self.bodies.capacity() + self.stack.capacity()) * frame) as u64
    }

    /// Replaces the contents of `out` with the events of one chunk
    /// payload that the index says holds `expected_events`.
    ///
    /// # Errors
    ///
    /// [`TraceFileError::BadGrammar`] or [`TraceFileError::BadRecord`] for
    /// a malformed payload, naming `chunk`.
    pub(crate) fn decode_into(
        &mut self,
        bytes: &[u8],
        expected_events: u32,
        chunk: usize,
        out: &mut Vec<AccessEvent>,
    ) -> Result<(), TraceFileError> {
        out.clear();
        let bad = |detail: String| TraceFileError::BadGrammar { chunk, detail };
        let mut pos = 0usize;
        let dict_len = index(read_u32(bytes, &mut pos, chunk, "dictionary length")?);
        if dict_len > index(expected_events) {
            return Err(bad(format!(
                "dictionary of {dict_len} entries exceeds {expected_events} events"
            )));
        }
        let dict_end = pos + dict_len * RECORD_BYTES;
        if dict_end > bytes.len() {
            return Err(bad("payload truncated inside dictionary".into()));
        }
        let (dict, _) = bytes[pos..dict_end].as_chunks::<RECORD_BYTES>();
        check_records(dict).map_err(|(i, detail)| TraceFileError::BadRecord {
            chunk,
            detail: format!("dictionary entry {i}: {detail}"),
        })?;
        pos = dict_end;

        let rule_len = index(read_u32(bytes, &mut pos, chunk, "rule count")?);
        if rule_len == 0 {
            return Err(bad("no rules (start rule required)".into()));
        }
        // Remaining bytes bound the total symbol count, so a hostile
        // rule_len cannot force a huge allocation.
        if rule_len > bytes.len().saturating_sub(pos) / 4 + 1 {
            return Err(bad(format!("rule count {rule_len} exceeds payload size")));
        }
        self.syms.clear();
        self.bodies.clear();
        for r in 0..rule_len {
            let sym_len = index(read_u32(bytes, &mut pos, chunk, "rule body length")?);
            if sym_len > bytes.len().saturating_sub(pos) / 4 {
                return Err(bad(format!(
                    "rule {r} body of {sym_len} symbols exceeds payload size"
                )));
            }
            // The body lies inside the payload (checked just above).
            let body_end = pos + 4 * sym_len;
            let start = self.syms.len();
            for word in bytes[pos..body_end].chunks_exact(4) {
                let word = u32::from_le_bytes(word.try_into().expect("4 bytes"));
                if word & RULE_BIT != 0 {
                    let idx = word & !RULE_BIT;
                    if index(idx) >= rule_len || idx == 0 {
                        return Err(bad(format!("rule {r} references invalid rule {idx}")));
                    }
                } else if index(word) >= dict_len {
                    return Err(bad(format!(
                        "rule {r} references dictionary id {word} >= {dict_len}"
                    )));
                }
                self.syms.push(word);
            }
            pos = body_end;
            self.bodies.push((start, self.syms.len()));
        }
        if pos != bytes.len() {
            return Err(bad(format!(
                "{} trailing bytes after the grammar",
                bytes.len() - pos
            )));
        }
        self.expand(dict, expected_events, out).map_err(bad)
    }

    /// Expands the start rule into `out` with an explicit stack, decoding
    /// each terminal from its checked record image in `dict`.
    ///
    /// Sequitur grammars are acyclic, but these bytes may not be from
    /// Sequitur: both the output length and the number of expansion steps
    /// are capped so cyclic or over-producing grammars terminate with an
    /// error. Each step visits one body symbol or ends a body. Sequitur's
    /// non-start rules have two or more symbols, so a derivation has
    /// fewer rule uses than events and takes under three steps per event
    /// (a run of one event, whose grammar nests pairs of pairs, comes
    /// closest).
    fn expand(
        &mut self,
        dict: &[[u8; RECORD_BYTES]],
        expected_events: u32,
        out: &mut Vec<AccessEvent>,
    ) -> Result<(), String> {
        let expected = index(expected_events);
        out.reserve(expected);
        let step_limit = u64::from(expected_events) * 3 + self.syms.len() as u64 * 2 + 64;
        let mut steps = 0u64;
        self.stack.clear();
        self.stack.push(self.bodies[0]);
        while let Some(top) = self.stack.last_mut() {
            steps += 1;
            if steps > step_limit {
                return Err("grammar expansion does not terminate".into());
            }
            let (at, end) = *top;
            if at >= end {
                self.stack.pop();
                continue;
            }
            top.0 = at + 1;
            let word = self.syms[at];
            if word & RULE_BIT != 0 {
                if self.stack.len() > self.bodies.len() + 1 {
                    return Err("grammar recursion exceeds rule count (cycle)".into());
                }
                self.stack.push(self.bodies[index(word & !RULE_BIT)]);
            } else {
                if out.len() == expected {
                    return Err(format!(
                        "grammar expands past the indexed {expected_events} events"
                    ));
                }
                out.push(record_event(&dict[index(word)]).0);
            }
        }
        if out.len() != expected {
            return Err(format!(
                "grammar expands to {} events, index says {expected_events}",
                out.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::stream::format::{
        decode_record, digest_events, encode_record, DEFAULT_CHUNK_EVENTS,
    };
    use crate::workload::catalog;

    fn sample(n: usize) -> Vec<AccessEvent> {
        catalog::data_serving().generator(3).take(n).collect()
    }

    /// `n` events cycling through a 64-event motif: exact repeats, so the
    /// grammar has rules to find.
    fn repeats(n: usize) -> Vec<AccessEvent> {
        let motif = sample(64);
        motif.iter().copied().cycle().take(n).collect()
    }

    /// `n` copies of one event: the deepest grammar Sequitur builds.
    fn run(n: usize) -> Vec<AccessEvent> {
        vec![sample(1)[0]; n]
    }

    /// One chunk through a fresh encoder.
    fn encode_chunk(events: &[AccessEvent]) -> Vec<u8> {
        let mut out = Vec::new();
        Encoder::default().encode(events, &mut out);
        out
    }

    /// One chunk through a fresh decoder, which must give the reference
    /// decoder's events or its error, variant and detail alike.
    fn decode(bytes: &[u8], events: u32, chunk: usize) -> Result<Vec<AccessEvent>, TraceFileError> {
        let mut out = Vec::new();
        let ours = Decoder::default()
            .decode_into(bytes, events, chunk, &mut out)
            .map(|()| out);
        let reference = reference_decode(bytes, events, chunk);
        assert_eq!(
            format!("{ours:?}"),
            format!("{reference:?}"),
            "decoder and reference disagree"
        );
        ours
    }

    /// The chunk decoder [`Decoder`] replaced, kept as its reference: a
    /// fresh dictionary, one `Vec` per rule body and a fresh output per
    /// chunk, expanded with a pop-and-push stack.
    fn reference_decode(
        bytes: &[u8],
        expected_events: u32,
        chunk: usize,
    ) -> Result<Vec<AccessEvent>, TraceFileError> {
        let bad = |detail: String| TraceFileError::BadGrammar { chunk, detail };
        let mut pos = 0usize;
        let dict_len = read_u32(bytes, &mut pos, chunk, "dictionary length")? as usize;
        if dict_len > expected_events as usize {
            return Err(bad(format!(
                "dictionary of {dict_len} entries exceeds {expected_events} events"
            )));
        }
        let dict_end = pos + dict_len * RECORD_BYTES;
        if dict_end > bytes.len() {
            return Err(bad("payload truncated inside dictionary".into()));
        }
        let mut dict = Vec::with_capacity(dict_len);
        for (i, rec) in bytes[pos..dict_end].chunks_exact(RECORD_BYTES).enumerate() {
            match decode_record(rec.try_into().expect("exact chunks")) {
                Ok(ev) => dict.push(ev),
                Err(detail) => {
                    return Err(TraceFileError::BadRecord {
                        chunk,
                        detail: format!("dictionary entry {i}: {detail}"),
                    })
                }
            }
        }
        pos = dict_end;
        let rule_len = read_u32(bytes, &mut pos, chunk, "rule count")? as usize;
        if rule_len == 0 {
            return Err(bad("no rules (start rule required)".into()));
        }
        if rule_len > bytes.len().saturating_sub(pos) / 4 + 1 {
            return Err(bad(format!("rule count {rule_len} exceeds payload size")));
        }
        let mut rules: Vec<Vec<u32>> = Vec::with_capacity(rule_len);
        let mut total_syms = 0u64;
        for r in 0..rule_len {
            let sym_len = read_u32(bytes, &mut pos, chunk, "rule body length")? as usize;
            if sym_len > bytes.len().saturating_sub(pos) / 4 {
                return Err(bad(format!(
                    "rule {r} body of {sym_len} symbols exceeds payload size"
                )));
            }
            let mut body = Vec::with_capacity(sym_len);
            for _ in 0..sym_len {
                let word = read_u32(bytes, &mut pos, chunk, "symbol")?;
                if word & RULE_BIT != 0 {
                    let idx = word & !RULE_BIT;
                    if idx as usize >= rule_len || idx == 0 {
                        return Err(bad(format!("rule {r} references invalid rule {idx}")));
                    }
                } else if word as usize >= dict_len {
                    return Err(bad(format!(
                        "rule {r} references dictionary id {word} >= {dict_len}"
                    )));
                }
                body.push(word);
            }
            total_syms += sym_len as u64;
            rules.push(body);
        }
        if pos != bytes.len() {
            return Err(bad(format!(
                "{} trailing bytes after the grammar",
                bytes.len() - pos
            )));
        }
        let mut out = Vec::with_capacity(expected_events as usize);
        let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
        let step_limit = u64::from(expected_events) * 3 + total_syms * 2 + 64;
        let mut steps = 0u64;
        while let Some((rule, sym_pos)) = stack.pop() {
            steps += 1;
            if steps > step_limit {
                return Err(bad("grammar expansion does not terminate".into()));
            }
            let body = &rules[rule as usize];
            if sym_pos >= body.len() {
                continue;
            }
            let word = body[sym_pos];
            stack.push((rule, sym_pos + 1));
            if word & RULE_BIT != 0 {
                if stack.len() > rules.len() + 1 {
                    return Err(bad("grammar recursion exceeds rule count (cycle)".into()));
                }
                stack.push((word & !RULE_BIT, 0));
            } else {
                if out.len() == expected_events as usize {
                    return Err(bad(format!(
                        "grammar expands past the indexed {expected_events} events"
                    )));
                }
                out.push(dict[word as usize]);
            }
        }
        if out.len() != expected_events as usize {
            return Err(bad(format!(
                "grammar expands to {} events, index says {expected_events}",
                out.len()
            )));
        }
        Ok(out)
    }

    #[test]
    fn chunk_round_trips() {
        // Small after large and large after small: whatever a chunk leaves
        // behind in the encoder or the decoder must not reach the next.
        let mut encoder = Encoder::default();
        let mut decoder = Decoder::default();
        let (mut out, mut decoded) = (Vec::new(), Vec::new());
        let default = DEFAULT_CHUNK_EVENTS as usize;
        for n in [0usize, 1, 7, 37, 2000, default, 37, 7, 1] {
            for events in [sample(n), repeats(n), run(n)] {
                encoder.encode(&events, &mut out);
                assert_eq!(out, encode_chunk(&events), "{n} events: reused != fresh");
                decoder
                    .decode_into(&out, n as u32, 0, &mut decoded)
                    .unwrap();
                assert_eq!(decoded, events, "{n} events");
                assert!(decoder.held_bytes() > 0);
            }
        }
    }

    #[test]
    fn repetitive_chunks_shrink() {
        // A repeated motif: grammar + dictionary must beat raw records.
        let events = repeats(64 * 64);
        let bytes = encode_chunk(&events);
        assert!(
            bytes.len() < events.len() * RECORD_BYTES / 4,
            "compressed {} bytes vs raw {}",
            bytes.len(),
            events.len() * RECORD_BYTES
        );
        assert_eq!(decode(&bytes, events.len() as u32, 0).unwrap(), events);
    }

    #[test]
    fn wrong_event_count_is_detected() {
        let events = sample(100);
        let bytes = encode_chunk(&events);
        let err = decode(&bytes, 99, 0).unwrap_err();
        assert!(matches!(err, TraceFileError::BadGrammar { .. }), "{err}");
        let err = decode(&bytes, 101, 0).unwrap_err();
        assert!(matches!(err, TraceFileError::BadGrammar { .. }), "{err}");
    }

    #[test]
    fn cyclic_grammar_errors_instead_of_looping() {
        // dict: 1 entry; rules: start -> rule 1, rule 1 -> rule 1 (cycle).
        let ev = sample(1);
        let mut rec = [0u8; RECORD_BYTES];
        encode_record(&ev[0], &mut rec);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&rec);
        bytes.extend_from_slice(&2u32.to_le_bytes()); // two rules
        bytes.extend_from_slice(&1u32.to_le_bytes()); // start: 1 symbol
        bytes.extend_from_slice(&(RULE_BIT | 1).to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // rule 1: 1 symbol
        bytes.extend_from_slice(&(RULE_BIT | 1).to_le_bytes()); // itself
        let err = decode(&bytes, 4, 0).unwrap_err();
        assert!(matches!(err, TraceFileError::BadGrammar { .. }), "{err}");
    }

    #[test]
    fn the_first_invalid_dictionary_record_is_reported() {
        // A bad kind, dependent or pad byte in one entry, and another bad
        // entry after it: the error names the first, with the message
        // `decode_record` gives for it.
        let events = sample(64);
        let clean = encode_chunk(&events);
        let dict_len = u32::from_le_bytes(clean[..4].try_into().unwrap()) as usize;
        assert!(dict_len > 10, "{dict_len} distinct events");
        let last = 4 + (dict_len - 1) * RECORD_BYTES;
        for (entry, byte, value, what) in [
            (5, 20, 2, "invalid kind byte 0x02"),
            (9, 21, 7, "invalid dependent byte 0x07"),
            (2, 23, 1, "nonzero pad bytes 0x00 0x01"),
        ] {
            let mut bytes = clean.clone();
            bytes[4 + entry * RECORD_BYTES + byte] = value;
            bytes[last + 20] = 9;
            let err = decode(&bytes, 64, 1).unwrap_err();
            assert!(matches!(err, TraceFileError::BadRecord { chunk: 1, .. }));
            assert!(
                err.to_string()
                    .ends_with(&format!("dictionary entry {entry}: {what}")),
                "{err}"
            );
        }
    }

    #[test]
    fn truncated_payload_errors() {
        let events = sample(64);
        let bytes = encode_chunk(&events);
        for cut in [0, 2, 5, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut], 64, 3).unwrap_err();
            match err {
                TraceFileError::BadGrammar { chunk, .. }
                | TraceFileError::BadRecord { chunk, .. } => assert_eq!(chunk, 3),
                other => panic!("unexpected error {other}"),
            }
        }
    }

    /// A random chunk of up to `max` events drawn from a few motifs over a
    /// small alphabet, so the grammar nests rules of several depths.
    fn random_chunk(rng: &mut SimRng, max: usize) -> Vec<AccessEvent> {
        let alphabet = sample(1 + rng.index(40));
        let motifs: Vec<Vec<AccessEvent>> = (0..1 + rng.index(4))
            .map(|_| {
                (0..1 + rng.index(12))
                    .map(|_| alphabet[rng.index(alphabet.len())])
                    .collect()
            })
            .collect();
        let len = rng.index(max + 1);
        let mut events = Vec::with_capacity(len);
        while events.len() < len {
            if rng.chance(0.2) {
                events.push(alphabet[rng.index(alphabet.len())]);
            } else {
                events.extend_from_slice(&motifs[rng.index(motifs.len())]);
            }
        }
        events.truncate(len);
        events
    }

    /// `bytes` with one random change: a flipped bit, a cut, or a `u32`
    /// field overwritten with a boundary value or a rule reference.
    fn corrupt(rng: &mut SimRng, bytes: &[u8]) -> Vec<u8> {
        let mut b = bytes.to_vec();
        if b.is_empty() {
            return b;
        }
        match rng.index(3) {
            0 => {
                let at = rng.index(b.len());
                b[at] ^= 1 << rng.index(8);
            }
            1 => b.truncate(rng.index(b.len())),
            _ => {
                let at = rng.index(b.len() / 4) * 4;
                let values = [0, 1, 2, RULE_BIT, RULE_BIT | 1, RULE_BIT | 2, 63, u32::MAX];
                let v = if rng.chance(0.5) {
                    values[rng.index(values.len())]
                } else {
                    rng.below(1 << 32) as u32
                };
                if at + 4 <= b.len() {
                    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
        }
        b
    }

    #[test]
    fn reused_decoder_matches_the_reference_on_random_and_corrupted_chunks() {
        // One decoder serves every case, as in a reader, so state left
        // behind by a failed or larger chunk would show here. Valid
        // chunks must decode to the encoder's input and its digest;
        // corrupted ones must give the reference's events or its error,
        // variant and detail alike.
        let mut rng = SimRng::seed(0xDEC0DE);
        let mut encoder = Encoder::default();
        let mut decoder = Decoder::default();
        let (mut bytes, mut out) = (Vec::new(), Vec::new());
        let (mut errors, mut decoded) = (0, 0);
        for case in 0..400 {
            let events = random_chunk(&mut rng, if case % 10 == 0 { 5000 } else { 300 });
            encoder.encode(&events, &mut bytes);
            let n = events.len() as u32;
            decoder.decode_into(&bytes, n, case, &mut out).unwrap();
            assert_eq!(out, events, "case {case}");
            assert_eq!(digest_events(&out), digest_events(&events));
            for _ in 0..12 {
                let bad = corrupt(&mut rng, &bytes);
                let count = match rng.index(4) {
                    0 => n.saturating_sub(1),
                    1 => n + 1,
                    _ => n,
                };
                let ours = decoder
                    .decode_into(&bad, count, case, &mut out)
                    .map(|()| out.clone());
                match (ours, reference_decode(&bad, count, case)) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a, b, "case {case}");
                        decoded += 1;
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "case {case}");
                        errors += 1;
                    }
                    (a, b) => panic!("case {case}: decoder {a:?}, reference {b:?}"),
                }
            }
        }
        assert!(
            errors > 1000 && decoded > 100,
            "{errors} errors, {decoded} decodes"
        );
    }
}
