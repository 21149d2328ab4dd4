//! Request span tracing: fixed-size binary records decomposing one
//! batch's life into queue wait vs. compute, in the `DMNOFLT1` style of
//! [`crate::trace`].
//!
//! A span follows one sampled [`BatchRequest`]-shaped unit of work
//! through the service: **submit** (client stamps the request) →
//! **enqueue** (request handed to the shard queue) → **dequeue** (shard
//! worker picks it up) → **step** (engine finished replaying the batch)
//! → **reply** (bookkeeping done, latency recorded). All five stamps
//! are nanosecond offsets from one run-wide origin instant, so
//! `dequeue - enqueue` is queue wait and `step - dequeue` is engine
//! compute without any cross-thread clock mixing.
//!
//! Spans are sampled 1-in-N by [`SpanSampler`], a pure hash of
//! `(seed, tenant, seq)` — no RNG state, no atomics — so *which*
//! requests carry spans is byte-identical across runs of the same plan.
//! The timestamps inside a span are wall-clock and vary run to run;
//! determinism here means deterministic *selection*, which is what
//! makes sampled output diffable and the overhead reproducible.
//!
//! # Binary file format (`spans_*.bin`, version 1, little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "DMNOSPN1"
//! 8       4     version (u32, = 1)
//! 12      4     reserved (u32, = 0)
//! 16      ...   source (u32 length + UTF-8 bytes, e.g. "shard-0")
//! ...     4     sample rate N (u32; 0 = disabled, 1 = every request)
//! ...     8     sampler seed (u64)
//! ...     8×2   ring capacity, spans ever recorded (u64 each)
//! ...     8     stored span count M (u64)
//! ...     64×M  spans, oldest first (see SpanRecord::to_bytes)
//! ```

/// File magic of a serialized span ring.
pub const SPAN_MAGIC: &[u8; 8] = b"DMNOSPN1";

/// Binary format version written by [`SpanRing::to_bytes`].
pub const SPAN_VERSION: u32 = 1;

/// Serialized size of one span record.
pub const SPAN_RECORD_BYTES: usize = 64;

/// One request's five-stage timeline. All `*_ns` fields are offsets
/// from the run origin; the service guarantees
/// `submit ≤ enqueue ≤ dequeue ≤ step ≤ reply` (audited by
/// `domino-check`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Tenant the batch belongs to.
    pub tenant: u64,
    /// Per-tenant sequence key (the batch's stream start offset).
    pub seq: u64,
    /// Shard that served the batch.
    pub shard: u32,
    /// Events in the batch.
    pub events: u32,
    /// Client stamped the request.
    pub submit_ns: u64,
    /// Request handed to the shard queue.
    pub enqueue_ns: u64,
    /// Shard worker received the request.
    pub dequeue_ns: u64,
    /// Engine finished replaying the batch.
    pub step_ns: u64,
    /// Shard bookkeeping done, latency recorded.
    pub reply_ns: u64,
}

impl SpanRecord {
    /// Queue wait: dequeue − enqueue (includes client blocking under
    /// the `Block` policy).
    pub fn queue_ns(&self) -> u64 {
        self.dequeue_ns.saturating_sub(self.enqueue_ns)
    }

    /// Engine compute: step − dequeue.
    pub fn compute_ns(&self) -> u64 {
        self.step_ns.saturating_sub(self.dequeue_ns)
    }

    /// Post-step bookkeeping (budget checks, eviction): reply − step.
    pub fn overhead_ns(&self) -> u64 {
        self.reply_ns.saturating_sub(self.step_ns)
    }

    /// Whether the five stamps are nondecreasing in pipeline order.
    pub fn chronological(&self) -> bool {
        self.submit_ns <= self.enqueue_ns
            && self.enqueue_ns <= self.dequeue_ns
            && self.dequeue_ns <= self.step_ns
            && self.step_ns <= self.reply_ns
    }

    fn to_bytes(self) -> [u8; SPAN_RECORD_BYTES] {
        let mut b = [0u8; SPAN_RECORD_BYTES];
        b[0..8].copy_from_slice(&self.tenant.to_le_bytes());
        b[8..16].copy_from_slice(&self.seq.to_le_bytes());
        b[16..20].copy_from_slice(&self.shard.to_le_bytes());
        b[20..24].copy_from_slice(&self.events.to_le_bytes());
        b[24..32].copy_from_slice(&self.submit_ns.to_le_bytes());
        b[32..40].copy_from_slice(&self.enqueue_ns.to_le_bytes());
        b[40..48].copy_from_slice(&self.dequeue_ns.to_le_bytes());
        b[48..56].copy_from_slice(&self.step_ns.to_le_bytes());
        b[56..64].copy_from_slice(&self.reply_ns.to_le_bytes());
        b
    }

    fn from_bytes(b: &[u8]) -> SpanRecord {
        let u64_at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().expect("8 bytes"));
        let u32_at = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().expect("4 bytes"));
        SpanRecord {
            tenant: u64_at(0),
            seq: u64_at(8),
            shard: u32_at(16),
            events: u32_at(20),
            submit_ns: u64_at(24),
            enqueue_ns: u64_at(32),
            dequeue_ns: u64_at(40),
            step_ns: u64_at(48),
            reply_ns: u64_at(56),
        }
    }
}

/// Deterministic 1-in-N request sampler: a pure function of
/// `(seed, tenant, seq)`, so the sampled set is identical across runs
/// and across threads with zero shared state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSampler {
    /// 1-in-N rate; 0 disables sampling, 1 samples everything.
    pub rate: u32,
    /// Hash seed, so distinct runs can sample distinct sets on purpose.
    pub seed: u64,
}

impl SpanSampler {
    /// A sampler at `rate` with `seed`.
    pub fn new(rate: u32, seed: u64) -> Self {
        SpanSampler { rate, seed }
    }

    /// Whether the request keyed `(tenant, seq)` carries a span.
    pub fn sampled(&self, tenant: u64, seq: u64) -> bool {
        match self.rate {
            0 => false,
            1 => true,
            rate => {
                // SplitMix64-style finalizer over the mixed key: cheap,
                // stateless, and well-distributed over low bits.
                let mut x = self
                    .seed
                    .wrapping_add(tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9));
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
                x.is_multiple_of(u64::from(rate))
            }
        }
    }
}

/// Fixed-capacity ring of [`SpanRecord`]s, keeping the most recent
/// `capacity` spans. Preallocated; recording is allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRing {
    slots: Vec<SpanRecord>,
    capacity: usize,
    recorded: u64,
}

impl SpanRing {
    /// A ring holding the last `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span ring needs capacity");
        let zero = SpanRecord {
            tenant: 0,
            seq: 0,
            shard: 0,
            events: 0,
            submit_ns: 0,
            enqueue_ns: 0,
            dequeue_ns: 0,
            step_ns: 0,
            reply_ns: 0,
        };
        SpanRing {
            slots: vec![zero; capacity],
            capacity,
            recorded: 0,
        }
    }

    /// Records one span, overwriting the oldest slot when full.
    pub fn record(&mut self, span: SpanRecord) {
        let slot = (self.recorded % self.capacity as u64) as usize;
        self.slots[slot] = span;
        self.recorded += 1;
    }

    /// Spans ever recorded (≥ [`SpanRing::len`]).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Spans currently stored.
    pub fn len(&self) -> usize {
        self.recorded.min(self.capacity as u64) as usize
    }

    /// Whether no span was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// Whether old spans have been discarded.
    pub fn wrapped(&self) -> bool {
        self.recorded > self.capacity as u64
    }

    /// Stored spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> + '_ {
        let len = self.len();
        let split = if self.wrapped() {
            (self.recorded % self.capacity as u64) as usize
        } else {
            0
        };
        (0..len).map(move |i| &self.slots[(split + i) % self.capacity])
    }

    /// Serializes the ring in the [module-level](self) binary format.
    pub fn to_bytes(&self, source: &str, sampler: SpanSampler) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + source.len() + self.len() * SPAN_RECORD_BYTES);
        out.extend_from_slice(SPAN_MAGIC);
        out.extend_from_slice(&SPAN_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(source.len() as u32).to_le_bytes());
        out.extend_from_slice(source.as_bytes());
        out.extend_from_slice(&sampler.rate.to_le_bytes());
        out.extend_from_slice(&sampler.seed.to_le_bytes());
        out.extend_from_slice(&(self.capacity as u64).to_le_bytes());
        out.extend_from_slice(&self.recorded.to_le_bytes());
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for span in self.spans() {
            out.extend_from_slice(&span.to_bytes());
        }
        out
    }
}

/// A parsed span file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanFile {
    /// Producer label from the header.
    pub source: String,
    /// The producer's sampler (rate + seed).
    pub sampler: SpanSampler,
    /// Ring capacity of the producer.
    pub capacity: u64,
    /// Spans the producer ever recorded.
    pub recorded: u64,
    /// Stored spans, oldest first.
    pub spans: Vec<SpanRecord>,
}

impl SpanFile {
    /// Parses a serialized span ring.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformation found.
    pub fn from_bytes(b: &[u8]) -> Result<SpanFile, String> {
        let need = |pos: usize, n: usize| -> Result<(), String> {
            match pos.checked_add(n) {
                Some(end) if end <= b.len() => Ok(()),
                _ => Err(format!("truncated span file at offset {pos}")),
            }
        };
        need(0, 16)?;
        if &b[0..8] != SPAN_MAGIC {
            return Err("bad magic: not a domino span file".into());
        }
        let version = u32::from_le_bytes(b[8..12].try_into().expect("4 bytes"));
        if version != SPAN_VERSION {
            return Err(format!("unsupported span version {version}"));
        }
        let mut pos = 16;
        need(pos, 4)?;
        let slen = u32::from_le_bytes(b[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4;
        need(pos, slen)?;
        let source = String::from_utf8(b[pos..pos + slen].to_vec())
            .map_err(|e| format!("invalid UTF-8 label: {e}"))?;
        pos += slen;
        need(pos, 4 + 8 + 8 + 8 + 8)?;
        let rate = u32::from_le_bytes(b[pos..pos + 4].try_into().expect("4 bytes"));
        pos += 4;
        let seed = u64::from_le_bytes(b[pos..pos + 8].try_into().expect("8 bytes"));
        pos += 8;
        let capacity = u64::from_le_bytes(b[pos..pos + 8].try_into().expect("8 bytes"));
        pos += 8;
        let recorded = u64::from_le_bytes(b[pos..pos + 8].try_into().expect("8 bytes"));
        pos += 8;
        let count = u64::from_le_bytes(b[pos..pos + 8].try_into().expect("8 bytes"));
        pos += 8;
        // Bound the declared count by the bytes present before sizing
        // anything by it: a hostile count must not overflow or allocate.
        let count = usize::try_from(count)
            .ok()
            .filter(|&n| n <= (b.len() - pos) / SPAN_RECORD_BYTES)
            .ok_or_else(|| {
                format!("truncated span file at offset {pos}: {count} spans declared")
            })?;
        let spans: Vec<SpanRecord> = (0..count)
            .map(|i| SpanRecord::from_bytes(&b[pos + i * SPAN_RECORD_BYTES..]))
            .collect();
        pos += count * SPAN_RECORD_BYTES;
        if pos != b.len() {
            return Err(format!("{} trailing bytes after spans", b.len() - pos));
        }
        Ok(SpanFile {
            source,
            sampler: SpanSampler::new(rate, seed),
            capacity,
            recorded,
            spans,
        })
    }

    /// Checks the file's invariants: stored count matches the header,
    /// every span is chronological, and every stored span's key is one
    /// the declared sampler selects.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify(&self) -> Result<(), String> {
        let expect = self.recorded.min(self.capacity) as usize;
        if self.spans.len() != expect {
            return Err(format!(
                "header promises {expect} stored spans, found {}",
                self.spans.len()
            ));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if !s.chronological() {
                return Err(format!(
                    "span {i} (tenant {}, seq {}): stamps out of order \
                     (submit {} enqueue {} dequeue {} step {} reply {})",
                    s.tenant, s.seq, s.submit_ns, s.enqueue_ns, s.dequeue_ns, s.step_ns, s.reply_ns
                ));
            }
            if self.sampler.rate > 0 && !self.sampler.sampled(s.tenant, s.seq) {
                return Err(format!(
                    "span {i} (tenant {}, seq {}): not selected by the declared sampler",
                    s.tenant, s.seq
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tenant: u64, seq: u64, base: u64) -> SpanRecord {
        SpanRecord {
            tenant,
            seq,
            shard: 1,
            events: 17,
            submit_ns: base,
            enqueue_ns: base + 10,
            dequeue_ns: base + 50,
            step_ns: base + 900,
            reply_ns: base + 950,
        }
    }

    #[test]
    fn decomposition_sums_to_the_timeline() {
        let s = span(3, 0, 1000);
        assert_eq!(s.queue_ns(), 40);
        assert_eq!(s.compute_ns(), 850);
        assert_eq!(s.overhead_ns(), 50);
        assert!(s.chronological());
        assert_eq!(
            s.queue_ns() + s.compute_ns() + s.overhead_ns(),
            s.reply_ns - s.enqueue_ns
        );
    }

    #[test]
    fn sampler_is_deterministic_and_rate_shaped() {
        let a = SpanSampler::new(8, 0xD0);
        let b = SpanSampler::new(8, 0xD0);
        let hits: Vec<bool> = (0..4096u64)
            .map(|seq| a.sampled(seq / 64, seq % 64))
            .collect();
        let again: Vec<bool> = (0..4096u64)
            .map(|seq| b.sampled(seq / 64, seq % 64))
            .collect();
        assert_eq!(hits, again, "pure function of (seed, tenant, seq)");
        let count = hits.iter().filter(|&&h| h).count();
        // 1-in-8 over 4096 keys: expect ~512; allow a wide band.
        assert!((256..=768).contains(&count), "rate off: {count}/4096");
    }

    #[test]
    fn sampler_edge_rates() {
        let off = SpanSampler::new(0, 1);
        let all = SpanSampler::new(1, 1);
        for k in 0..64u64 {
            assert!(!off.sampled(k, k));
            assert!(all.sampled(k, k));
        }
    }

    #[test]
    fn distinct_seeds_sample_distinct_sets() {
        let a = SpanSampler::new(4, 1);
        let b = SpanSampler::new(4, 2);
        let sa: Vec<bool> = (0..1024u64).map(|k| a.sampled(k, 0)).collect();
        let sb: Vec<bool> = (0..1024u64).map(|k| b.sampled(k, 0)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn ring_wraps_oldest_first() {
        let mut ring = SpanRing::new(3);
        for i in 0..5u64 {
            ring.record(span(i, i, i * 1000));
        }
        assert!(ring.wrapped());
        assert_eq!(ring.recorded(), 5);
        let tenants: Vec<u64> = ring.spans().map(|s| s.tenant).collect();
        assert_eq!(tenants, vec![2, 3, 4]);
    }

    #[test]
    fn roundtrip_and_verify() {
        let sampler = SpanSampler::new(1, 7);
        let mut ring = SpanRing::new(8);
        ring.record(span(1, 0, 100));
        ring.record(span(2, 17, 300));
        let bytes = ring.to_bytes("shard-2", sampler);
        let f = SpanFile::from_bytes(&bytes).expect("parse");
        assert_eq!(f.source, "shard-2");
        assert_eq!(f.sampler, sampler);
        assert_eq!(f.capacity, 8);
        assert_eq!(f.recorded, 2);
        assert_eq!(f.spans, vec![span(1, 0, 100), span(2, 17, 300)]);
        f.verify().expect("invariants hold");
    }

    #[test]
    fn verify_rejects_achronological_span() {
        let mut ring = SpanRing::new(4);
        let mut s = span(1, 0, 100);
        s.dequeue_ns = s.enqueue_ns - 1;
        ring.record(s);
        let f = SpanFile::from_bytes(&ring.to_bytes("s", SpanSampler::new(1, 0))).expect("parse");
        let err = f.verify().expect_err("out-of-order stamps must fail");
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn verify_rejects_unsampled_key() {
        let sampler = SpanSampler::new(1_000_000, 0);
        // Find a key the sampler rejects, store it anyway.
        let key = (0..u64::MAX).find(|&k| !sampler.sampled(k, 0)).unwrap();
        let mut ring = SpanRing::new(4);
        ring.record(span(key, 0, 10));
        let f = SpanFile::from_bytes(&ring.to_bytes("s", sampler)).expect("parse");
        let err = f.verify().expect_err("unsampled key must fail");
        assert!(err.contains("not selected"), "{err}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SpanFile::from_bytes(b"short").is_err());
        let ring = SpanRing::new(2);
        let mut bytes = ring.to_bytes("s", SpanSampler::new(0, 0));
        bytes[8] = 9; // version
        assert!(SpanFile::from_bytes(&bytes).is_err());
        let mut trailing = ring.to_bytes("s", SpanSampler::new(0, 0));
        trailing.push(0);
        assert!(SpanFile::from_bytes(&trailing).is_err());
    }

    #[test]
    fn parse_rejects_a_hostile_span_count() {
        // Header, empty source, rate 1, seed 0, capacity 4, recorded 4,
        // then a count whose byte size overflows `usize`.
        for count in [1u64 << 58, u64::MAX] {
            let mut bytes = SpanRing::new(4).to_bytes("", SpanSampler::new(1, 0));
            bytes.truncate(bytes.len() - 24);
            for field in [4u64, 4, count] {
                bytes.extend_from_slice(&field.to_le_bytes());
            }
            assert_eq!(bytes.len(), 56);
            let err = SpanFile::from_bytes(&bytes).expect_err("hostile count must be an error");
            assert!(err.contains("truncated"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_panics() {
        SpanRing::new(0);
    }
}
