//! The repository benchmark: three workloads that drive the simulator
//! through its public API, measure host time end to end, and attribute
//! it to layers from outside (see `README.md` in this directory).
//!
//! A workload is set up once per process ([`Workload::setup`]), then
//! repeated ([`Workload::pass`]) for the measured window. Every pass
//! returns the digest of all simulated results it produced; the runner
//! checks that every pass of a process gives the same digest, traced or
//! not, and each workload re-derives its results once more through an
//! independent path ([`Workload::verify`]).

pub mod affinity;
pub mod digest;
pub mod layers;
pub mod service;
pub mod stream;
pub mod timing;

use std::path::Path;
use std::time::Instant;

use domino_trace::event::AccessEvent;
use domino_trace::stream::{Codec, TraceWriter, DEFAULT_CHUNK_EVENTS};

pub use digest::Digest;

/// How a per-layer value combines across the traced passes of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A host-time measurement: reported as the mean over traced passes.
    Mean,
    /// An exact simulated count: identical on every pass.
    Exact,
}

/// One per-layer value measured by a traced pass.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How passes combine.
    pub kind: Kind,
}

/// What one repetition of a workload did.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Simulated trace events replayed.
    pub events: u64,
    /// Host seconds the pass took (the measured window; for a traced
    /// pass, every traced phase).
    pub wall_s: f64,
    /// Host seconds of the part of the pass that repeats an untraced
    /// pass's work, for the tracing-overhead ratio.
    pub compare_s: f64,
    /// Digest of every simulated result of the pass.
    pub digest: Digest,
    /// Per-layer values; empty for untraced passes.
    pub layers: Vec<Layer>,
    /// Host seconds of the layers that partition `wall_s` (traced
    /// passes only); `wall_s` minus their sum is reported as
    /// unattributed.
    pub attributed_s: f64,
}

impl Pass {
    /// An untraced pass.
    pub fn plain(events: u64, wall_s: f64, digest: Digest) -> Self {
        Pass {
            events,
            wall_s,
            compare_s: wall_s,
            digest,
            layers: Vec::new(),
            attributed_s: 0.0,
        }
    }

    /// Records a host-time layer; `partitions` adds it to the wall-time
    /// attribution.
    pub fn time(&mut self, name: &'static str, secs: f64, partitions: bool) {
        if partitions {
            self.attributed_s += secs;
        }
        self.layers.push(Layer {
            name,
            value: secs,
            unit: "s",
            kind: Kind::Mean,
        });
    }

    /// Records a derived host-time value in another unit (not part of
    /// the attribution).
    pub fn mean(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Layer {
            name,
            value,
            unit,
            kind: Kind::Mean,
        });
    }

    /// Records an exact simulated count.
    pub fn exact(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Layer {
            name,
            value,
            unit,
            kind: Kind::Exact,
        });
    }
}

/// Set-up host times, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Trace synthesis (and, for the service, tenant-stream derivation).
    pub generate_s: f64,
    /// Sequitur encode of the streamed trace file.
    pub encode_s: f64,
}

/// Outcome of a workload's independent re-derivation of its results.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verified {
    /// Results compared.
    pub attempted: u64,
    /// Results that disagreed with the measured passes.
    pub failed: u64,
}

impl Verified {
    /// Counts one comparison.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds every input from `seed`; may write scratch files under
    /// `work_dir`.
    ///
    /// # Errors
    ///
    /// Any failure to write or read the workload's scratch files.
    fn setup(seed: u64, work_dir: &Path) -> Result<(Self, SetupTimes), String>;

    /// Runs one repetition; `traced` wraps the layer boundaries.
    ///
    /// # Errors
    ///
    /// A simulator operation that failed.
    fn pass(&mut self, traced: bool) -> Result<Pass, String>;

    /// Re-derives the results through an independent path and compares
    /// them with those of the measured passes.
    ///
    /// # Errors
    ///
    /// A simulator operation that failed.
    fn verify(&mut self) -> Result<Verified, String>;

    /// Threads the workload keeps busy.
    fn threads(&self) -> usize;

    /// Simulated events one pass replays.
    fn events_per_pass(&self) -> u64;

    /// Where the workload's threads run.
    fn placement(&self) -> String {
        "unpinned".into()
    }
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// traced run reports all of them; layers a workload does not pass
/// through read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traced.wall_s", "s"),
    ("traced.unattributed_s", "s"),
    ("tracing.overhead_x", "x"),
    ("trace.generate_s", "s"),
    ("trace.encode_s", "s"),
    ("roster.build_s", "s"),
    ("timing.prefetcher_s", "s"),
    ("timing.core_s", "s"),
    ("multicore.wall_s", "s"),
    ("multicore.prefetcher_s", "s"),
    ("coverage.prefetcher_s", "s"),
    ("coverage.apply_s", "s"),
    ("coverage.stage_s", "s"),
    ("source.wait_s", "s"),
    ("source.decode_s", "s"),
    ("source.peak_resident_bytes", "bytes"),
    ("session.open_ms", "ms"),
    ("front.submit_blocked_s", "s"),
    ("shard.busy_s", "s"),
    ("shard.busy_frac", "fraction"),
    ("shard.batch_mean_us", "us"),
    ("timing.triggers", "count"),
    ("timing.timely_hits", "count"),
    ("timing.late_hits", "count"),
    ("timing.full_misses", "count"),
    ("timing.sim_ns", "ns"),
    ("dram.demand_bytes", "bytes"),
    ("dram.prefetch_bytes", "bytes"),
    ("dram.metadata_bytes", "bytes"),
    ("coverage.triggers", "count"),
    ("coverage.baseline_misses", "count"),
    ("coverage.covered", "count"),
    ("coverage.issued", "count"),
    ("coverage.overpredictions", "count"),
    ("coverage.meta_read_blocks", "count"),
    ("coverage.meta_write_blocks", "count"),
    ("coverage.accuracy", "fraction"),
    ("shard.batches", "count"),
    ("shard.sessions", "count"),
    ("shard.peak_tenants", "count"),
    ("shard.peak_footprint_mb", "MB"),
];

/// Writes a `DMNOTRC1` trace file from `blocks`, adding the time spent
/// generating the blocks and encoding them to `times`. Only one block is
/// resident at a time.
///
/// # Errors
///
/// Any failure to write the file.
pub fn write_trace(
    path: &Path,
    codec: Codec,
    mut blocks: impl Iterator<Item = Vec<AccessEvent>>,
    times: &mut SetupTimes,
) -> Result<(), String> {
    let mut writer = TraceWriter::create(path, DEFAULT_CHUNK_EVENTS, codec).map_err(trace_error)?;
    loop {
        let t0 = Instant::now();
        let Some(block) = blocks.next() else { break };
        let t1 = Instant::now();
        writer.write_events(&block).map_err(trace_error)?;
        times.generate_s += (t1 - t0).as_secs_f64();
        times.encode_s += t1.elapsed().as_secs_f64();
    }
    let t0 = Instant::now();
    writer.finish().map_err(trace_error)?;
    times.encode_s += t0.elapsed().as_secs_f64();
    Ok(())
}

/// Message for a failed trace-file operation.
pub(crate) fn trace_error(e: impl std::fmt::Display) -> String {
    format!("trace file: {e}")
}

/// Host memory high-water mark of this process in MiB (`VmHWM`), or
/// `None` where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Median of `values` (mean of the middle two for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
