//! `timing-sweep`: Figure-14 and bandwidth-style timing cells over
//! cached traces, serially on one thread.
//!
//! One pass runs the single-core interval timing model (warmup of a
//! quarter) for six systems on three workloads, then the 4-core model
//! on Web Apache for Baseline and Domino. This is where the timing core
//! (ROB/MSHR), the shared LLC with its cross-core pollution inserts, and
//! the DRAM channel do most of the work.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use domino_mem::interface::Prefetcher;
use domino_sim::timing::run_timing_warmed;
use domino_sim::{
    run_multicore, run_timing_with_batch, MulticoreReport, System, SystemConfig, TimingReport,
};
use domino_trace::event::AccessEvent;
use domino_trace::workload::{catalog, WorkloadSpec};

use crate::layers::{Clocks, TimedPrefetcher};
use crate::{Digest, Pass, SetupTimes, Verified, Workload};

/// Events per single-core trace.
pub const EVENTS: usize = 100_000;
/// Events per core of the 4-core runs.
pub const MULTICORE_EVENTS: usize = 40_000;

/// The single-core roster: the paper's temporal prefetchers plus the
/// two later on-chip designs, against the no-prefetcher baseline.
const SYSTEMS: [System; 6] = [
    System::Baseline,
    System::Stms,
    System::Digram,
    System::Domino,
    System::Pangloss,
    System::Triangel,
];

/// Pointer-chasing, bandwidth-hungry and noise-dominated behaviour.
fn specs() -> [WorkloadSpec; 3] {
    [
        catalog::oltp(),
        catalog::web_apache(),
        catalog::sat_solver(),
    ]
}

/// Degree a system runs at (Figure 14 runs the baseline at degree 1).
fn degree(sys: System) -> usize {
    if sys == System::Baseline {
        1
    } else {
        4
    }
}

/// The prepared inputs.
pub struct TimingSweep {
    system: SystemConfig,
    traces: Vec<Vec<AccessEvent>>,
    core_traces: Vec<Vec<AccessEvent>>,
    /// Results of the most recent pass, for [`Workload::verify`].
    last: Vec<TimingReport>,
    last_multicore: Vec<MulticoreReport>,
}

/// A prefetcher, wrapped when the pass is traced.
fn build(sys: System, clocks: Option<&Arc<Clocks>>) -> Box<dyn Prefetcher> {
    let bare = sys.build(degree(sys));
    match clocks {
        Some(c) => Box::new(TimedPrefetcher::new(bare, Arc::clone(c))),
        None => bare,
    }
}

impl Workload for TimingSweep {
    fn setup(seed: u64, _work_dir: &Path) -> Result<(Self, SetupTimes), String> {
        let t0 = Instant::now();
        let traces = specs()
            .iter()
            .map(|spec| spec.generator(seed).take(EVENTS).collect())
            .collect();
        let system = SystemConfig::paper();
        // Per-core seeds follow `run_homogeneous`.
        let core_traces = (0..u64::from(system.cores))
            .map(|c| {
                catalog::web_apache()
                    .generator(seed.wrapping_add(c * 0x9e37))
                    .take(MULTICORE_EVENTS)
                    .collect()
            })
            .collect();
        let times = SetupTimes {
            generate_s: t0.elapsed().as_secs_f64(),
            encode_s: 0.0,
        };
        Ok((
            TimingSweep {
                system,
                traces,
                core_traces,
                last: Vec::new(),
                last_multicore: Vec::new(),
            },
            times,
        ))
    }

    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        let clocks = Clocks::shared();
        let core_clocks = Clocks::shared();
        let tc = traced.then_some(&clocks);
        let mc = traced.then_some(&core_clocks);
        // `run_multicore` consumes its traces; copy them outside the
        // measured window.
        let mut copies: Vec<Vec<Vec<AccessEvent>>> =
            (0..2).map(|_| self.core_traces.clone()).collect();
        let mut digest = Digest::default();
        let (mut build_s, mut single_s, mut multi_s) = (0.0, 0.0, 0.0);
        self.last.clear();
        self.last_multicore.clear();
        let t0 = Instant::now();
        for trace in &self.traces {
            for sys in SYSTEMS {
                let tb = Instant::now();
                let mut p = build(sys, tc);
                let tr = Instant::now();
                let r = run_timing_warmed(&self.system, trace, p.as_mut(), trace.len() / 4);
                drop(p);
                let te = Instant::now();
                build_s += (tr - tb).as_secs_f64();
                single_s += (te - tr).as_secs_f64();
                digest.timing(&r);
                self.last.push(r);
            }
        }
        for sys in [System::Baseline, System::Domino] {
            let tb = Instant::now();
            let prefetchers = (0..self.system.cores).map(|_| build(sys, mc)).collect();
            let tr = Instant::now();
            let r = run_multicore(
                &self.system,
                copies.pop().expect("one copy per run"),
                prefetchers,
            );
            let te = Instant::now();
            build_s += (tr - tb).as_secs_f64();
            multi_s += (te - tr).as_secs_f64();
            digest.multicore(&r);
            self.last_multicore.push(r);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let events = (self.traces.iter().map(Vec::len).sum::<usize>() * SYSTEMS.len()
            + 2 * self.core_traces.iter().map(Vec::len).sum::<usize>()) as u64;
        let mut pass = Pass::plain(events, wall_s, digest);
        if traced {
            let prefetcher_s = clocks.trigger.secs();
            pass.time("roster.build_s", build_s, true);
            pass.time("timing.prefetcher_s", prefetcher_s, true);
            pass.time("timing.core_s", single_s - prefetcher_s, true);
            pass.time("multicore.wall_s", multi_s, true);
            pass.time("multicore.prefetcher_s", core_clocks.trigger.secs(), false);
            self.counts(
                &mut pass,
                clocks.trigger.calls() + core_clocks.trigger.calls(),
            );
        }
        Ok(pass)
    }

    fn verify(&mut self) -> Result<Verified, String> {
        // The scalar one-event-at-a-time loop is an independent
        // implementation of the same model; the measured passes ran the
        // batched loop.
        let mut v = Verified::default();
        let mut cells = self.last.iter();
        for trace in &self.traces {
            for sys in SYSTEMS {
                let mut p = sys.build(degree(sys));
                let r = run_timing_with_batch(&self.system, trace, p.as_mut(), trace.len() / 4, 1);
                let same = cells.next().is_some_and(|m| {
                    let (mut a, mut b) = (Digest::default(), Digest::default());
                    a.timing(m);
                    b.timing(&r);
                    a == b
                });
                v.check(same);
            }
        }
        Ok(v)
    }

    fn threads(&self) -> usize {
        1
    }

    fn events_per_pass(&self) -> u64 {
        (self.traces.iter().map(Vec::len).sum::<usize>() * SYSTEMS.len()
            + 2 * self.core_traces.iter().map(Vec::len).sum::<usize>()) as u64
    }
}

impl TimingSweep {
    /// The exact simulated counts of the last pass.
    fn counts(&self, pass: &mut Pass, triggers: u64) {
        let cores = self.last_multicore.iter().flat_map(|m| m.per_core.iter());
        let all: Vec<&TimingReport> = self.last.iter().chain(cores).collect();
        let sum = |f: fn(&TimingReport) -> u64| all.iter().map(|r| f(r)).sum::<u64>() as f64;
        pass.exact("timing.triggers", triggers as f64, "count");
        pass.exact("timing.timely_hits", sum(|r| r.timely_hits), "count");
        pass.exact("timing.late_hits", sum(|r| r.late_hits), "count");
        pass.exact("timing.full_misses", sum(|r| r.full_misses), "count");
        let sim_ns: f64 = self.last.iter().map(|r| r.total_ns).sum::<f64>()
            + self.last_multicore.iter().map(|m| m.total_ns).sum::<f64>();
        pass.exact("timing.sim_ns", sim_ns, "ns");
        // Single-core traffic per run plus chip traffic per 4-core run.
        let traffic = self
            .last
            .iter()
            .map(|r| r.traffic)
            .chain(self.last_multicore.iter().map(|m| m.chip));
        let (mut demand, mut prefetch, mut meta) = (0u64, 0u64, 0u64);
        for t in traffic {
            demand += t.demand;
            prefetch += t.prefetch;
            meta += t.metadata_read + t.metadata_write;
        }
        pass.exact("dram.demand_bytes", demand as f64, "bytes");
        pass.exact("dram.prefetch_bytes", prefetch as f64, "bytes");
        pass.exact("dram.metadata_bytes", meta as f64, "bytes");
    }
}
