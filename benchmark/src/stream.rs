//! `stream-coverage`: one multi-million-event trace, written during set-up
//! as a Sequitur-coded `DMNOTRC1` file, replayed through the read-ahead
//! [`FileSource`] into the streamed coverage engine for Baseline, Stride
//! and Domino.
//!
//! It is the only workload with trace decode on the critical path: the
//! Sequitur decoder runs on its own thread and the Baseline and Stride
//! passes consume events faster than it produces them. The Domino pass
//! keeps the coverage engine and the prefetcher in play without a
//! timing core.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use domino_mem::interface::Prefetcher;
use domino_sim::observe::DEFAULT_BATCH;
use domino_sim::{
    run_coverage_streamed, run_coverage_with_batch, CoverageReport, System, SystemConfig,
};
use domino_trace::event::AccessEvent;
use domino_trace::stream::{Codec, EventSource, FileSource, TraceReader, DEFAULT_CHUNK_EVENTS};
use domino_trace::workload::catalog;

use crate::affinity::{pin_current_thread, two_cpus};
use crate::layers::{Clocks, TimedPrefetcher, TimedSource};
use crate::{trace_error, write_trace, Digest, Pass, SetupTimes, Verified, Workload};

/// Events in the streamed trace.
pub const EVENTS: usize = 2_000_000;
/// The trace is this many OLTP segments, each from its own generator
/// seed, so its cost averages over several draws of the workload's
/// structure instead of resting on one.
const SEGMENTS: usize = 8;

/// The streamed trace of `seed`, in order.
fn trace_events(seed: u64) -> impl Iterator<Item = AccessEvent> {
    (0..SEGMENTS as u64).flat_map(move |i| {
        catalog::oltp()
            .generator(seed.wrapping_mul(SEGMENTS as u64).wrapping_add(i))
            .take(EVENTS / SEGMENTS)
    })
}

/// Systems replayed per pass, each at degree 4.
const SYSTEMS: [System; 3] = [System::Baseline, System::Stride, System::Domino];

/// The prepared inputs.
pub struct StreamCoverage {
    system: SystemConfig,
    path: PathBuf,
    seed: u64,
    /// Simulation and decoder CPUs, where the process has two.
    cpus: Option<(usize, usize)>,
    /// Reports of the most recent pass, for [`Workload::verify`].
    last: Vec<CoverageReport>,
}

impl Drop for StreamCoverage {
    fn drop(&mut self) {
        // The scratch file is this process's own; nothing else reads it.
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Workload for StreamCoverage {
    fn setup(seed: u64, work_dir: &Path) -> Result<(Self, SetupTimes), String> {
        let path = work_dir.join(format!("stream-{seed}-{}.dmno", std::process::id()));
        // Own the file from here on, so an error below still removes it.
        // It is written one chunk at a time: neither the whole trace nor
        // the whole file is ever resident.
        let workload = StreamCoverage {
            system: SystemConfig::paper(),
            path,
            seed,
            cpus: two_cpus(),
            last: Vec::new(),
        };
        let mut times = SetupTimes::default();
        let chunk = DEFAULT_CHUNK_EVENTS as usize;
        let mut events = trace_events(seed);
        let blocks = (0..EVENTS.div_ceil(chunk)).map(|_| events.by_ref().take(chunk).collect());
        write_trace(&workload.path, Codec::Sequitur, blocks, &mut times)?;
        Ok((workload, times))
    }

    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        let clocks = Clocks::shared();
        let mut digest = Digest::default();
        let (mut build_s, mut peak_bytes) = (0.0, 0u64);
        self.last.clear();
        let t0 = Instant::now();
        for sys in SYSTEMS {
            let file = self.open()?;
            let tb = Instant::now();
            let bare = sys.build(4);
            let mut p: Box<dyn Prefetcher> = if traced {
                Box::new(TimedPrefetcher::new(bare, Arc::clone(&clocks)))
            } else {
                bare
            };
            build_s += tb.elapsed().as_secs_f64();
            let r = if traced {
                let mut src = TimedSource::new(file, Arc::clone(&clocks));
                let r = run_coverage_streamed(
                    &self.system,
                    &mut src,
                    p.as_mut(),
                    0,
                    DEFAULT_BATCH as usize,
                );
                peak_bytes = peak_bytes.max(src.peak_resident_bytes());
                r
            } else {
                let mut src = file;
                run_coverage_streamed(
                    &self.system,
                    &mut src,
                    p.as_mut(),
                    0,
                    DEFAULT_BATCH as usize,
                )
            }
            .map_err(trace_error)?;
            drop(p);
            digest.coverage(&r);
            self.last.push(r);
        }
        let replay_s = t0.elapsed().as_secs_f64();
        let events = (EVENTS * SYSTEMS.len()) as u64;
        let mut pass = Pass::plain(events, replay_s, digest);
        if traced {
            // A separate decode-only phase prices the decoder on its own.
            let td = Instant::now();
            let decode_s = decode_pass(&self.path)?;
            let decode_phase_s = td.elapsed().as_secs_f64();
            pass.wall_s = replay_s + decode_phase_s;
            let batch_s = clocks.batch.secs();
            let apply_s = clocks.next.secs();
            let wait_s = clocks.chunk.secs();
            pass.time("roster.build_s", build_s, true);
            pass.time("coverage.prefetcher_s", batch_s - apply_s, true);
            pass.time("coverage.apply_s", apply_s, true);
            pass.time("source.wait_s", wait_s, true);
            pass.time(
                "coverage.stage_s",
                replay_s - build_s - batch_s - wait_s,
                true,
            );
            pass.time("source.decode_s", decode_s, true);
            pass.exact("source.peak_resident_bytes", peak_bytes as f64, "bytes");
            coverage_counts(&mut pass, &self.last, clocks.coverage_triggers());
        }
        Ok(pass)
    }

    fn verify(&mut self) -> Result<Verified, String> {
        // The cached in-memory path, on a trace generated afresh, must
        // give exactly the streamed reports.
        let trace: Vec<AccessEvent> = trace_events(self.seed).collect();
        let mut v = Verified::default();
        for (sys, streamed) in SYSTEMS.iter().zip(&self.last) {
            let mut p = sys.build(4);
            let r = run_coverage_with_batch(&self.system, &trace, p.as_mut(), 0, DEFAULT_BATCH);
            let (mut a, mut b) = (Digest::default(), Digest::default());
            a.coverage(streamed);
            b.coverage(&r);
            v.check(a == b);
        }
        Ok(v)
    }

    fn threads(&self) -> usize {
        2
    }

    fn events_per_pass(&self) -> u64 {
        (EVENTS * SYSTEMS.len()) as u64
    }

    fn placement(&self) -> String {
        match self.cpus {
            Some((sim, decoder)) => format!("simulation on cpu {sim}, decoder on cpu {decoder}"),
            None => "unpinned".into(),
        }
    }
}

impl StreamCoverage {
    /// Opens the trace file with its read-ahead decoder thread on the
    /// second CPU and the calling thread on the first (see
    /// [`crate::affinity`]).
    fn open(&self) -> Result<FileSource, String> {
        let Some((sim, decoder)) = self.cpus else {
            return FileSource::open(&self.path).map_err(trace_error);
        };
        pin_current_thread(decoder);
        let file = FileSource::open(&self.path);
        pin_current_thread(sim);
        file.map_err(trace_error)
    }
}

/// Decodes every chunk of `path` once, returning the seconds spent in
/// [`TraceReader::read_chunk_into`].
fn decode_pass(path: &Path) -> Result<f64, String> {
    let mut reader = TraceReader::open(path).map_err(trace_error)?;
    let mut chunk = Vec::new();
    let mut secs = 0.0;
    for idx in 0..reader.chunk_count() {
        let t0 = Instant::now();
        reader
            .read_chunk_into(idx, &mut chunk)
            .map_err(trace_error)?;
        secs += t0.elapsed().as_secs_f64();
    }
    Ok(secs)
}

/// The exact coverage counts, summed over `reports`.
pub fn coverage_counts(pass: &mut Pass, reports: &[CoverageReport], triggers: u64) {
    let sum = |f: fn(&CoverageReport) -> u64| reports.iter().map(f).sum::<u64>();
    let covered = sum(|r| r.covered);
    let issued = sum(|r| r.prefetches_issued);
    pass.exact("coverage.triggers", triggers as f64, "count");
    pass.exact(
        "coverage.baseline_misses",
        sum(|r| r.baseline_misses) as f64,
        "count",
    );
    pass.exact("coverage.covered", covered as f64, "count");
    pass.exact("coverage.issued", issued as f64, "count");
    pass.exact(
        "coverage.overpredictions",
        sum(|r| r.overpredictions) as f64,
        "count",
    );
    pass.exact(
        "coverage.meta_read_blocks",
        sum(|r| r.meta_read_blocks) as f64,
        "count",
    );
    pass.exact(
        "coverage.meta_write_blocks",
        sum(|r| r.meta_write_blocks) as f64,
        "count",
    );
    let accuracy = if issued == 0 {
        0.0
    } else {
        covered as f64 / issued as f64
    };
    pass.exact("coverage.accuracy", accuracy, "fraction");
}
