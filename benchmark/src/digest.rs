//! One 64-bit digest per workload run, folded from every simulated
//! result the run produced. Simulated statistics are deterministic, so
//! equal digests mean equal results; the benchmark compares them across
//! repetitions, across traced and untraced runs, and against the values
//! recorded for known seeds.

use domino_mem::dram::TrafficStats;
use domino_sim::{CoverageReport, MulticoreReport, TimingReport};

/// An order-sensitive FNV-1a fold over 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word, byte by byte.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a simulated time by its exact bit pattern.
    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Folds a label, length-prefixed.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// The folded value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Hex rendering used in outputs and in `expected.json`.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }

    fn traffic(&mut self, t: &TrafficStats) {
        for v in [t.demand, t.prefetch, t.metadata_read, t.metadata_write] {
            self.word(v);
        }
    }

    /// Folds every field of a timing report.
    pub fn timing(&mut self, r: &TimingReport) {
        self.text(&r.name);
        self.float(r.total_ns);
        self.word(r.instructions);
        self.float(r.dependent_stall_ns);
        self.float(r.independent_stall_ns);
        for v in [r.timely_hits, r.late_hits, r.full_misses] {
            self.word(v);
        }
        self.traffic(&r.traffic);
    }

    /// Folds every per-core report plus the chip totals.
    pub fn multicore(&mut self, r: &MulticoreReport) {
        for core in &r.per_core {
            self.timing(core);
        }
        self.float(r.total_ns);
        self.traffic(&r.chip);
    }

    /// Folds every field of a coverage report.
    pub fn coverage(&mut self, r: &CoverageReport) {
        self.text(&r.name);
        for v in [
            r.accesses,
            r.l1_hits,
            r.baseline_misses,
            r.covered,
            r.read_misses,
            r.read_covered,
            r.prefetches_issued,
            r.overpredictions,
            r.meta_read_blocks,
            r.meta_write_blocks,
            r.first_prefetch_trips,
            r.first_prefetch_count,
        ] {
            self.word(v);
        }
        for &c in r.stream_lengths.counts() {
            self.word(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
        assert_eq!(Digest::default().hex().len(), 16);
    }
}
