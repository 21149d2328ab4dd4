//! True multi-core simulation: the paper's quad-core platform (Table I)
//! with four cores sharing the LLC and the 37.5 GB/s memory channel.
//!
//! Each core runs its own workload trace, L1, prefetch buffer, and
//! prefetcher instance (the paper gives each core *dedicated* metadata
//! tables, §III-A). Cores advance in simulated-time order, so a burst of
//! misses on one core delays the others through channel queueing — the
//! contention that Figure 15's bandwidth argument is about — and all
//! cores' fills compete for LLC capacity.
//!
//! This module backs the §V-D analysis ("the most bandwidth-hungry server
//! workload consumes only 8 GB/s"; "using Domino, the bandwidth
//! utilization ranges from 8.7 % ... to 32.8 %"): run four copies of a
//! workload and read off the chip-level bandwidth with and without the
//! prefetcher.
//!
//! A caveat for *speedup* readings at reproduction scale: four copies of
//! the compute-budget-sized workload models fit comfortably in the 4 MB
//! LLC, so the baseline barely stalls and prefetching shows little to
//! gain — use [`crate::timing::run_timing`] (whose cross-core pollution
//! emulates the paper's vast datasets) for Figure 14 speedups, and this
//! module for bandwidth and contention.

use domino_mem::cache::SetAssocCache;
use domino_mem::dram::Dram;
use domino_mem::interface::Prefetcher;
use domino_telemetry::Telemetry;
use domino_trace::event::AccessEvent;
use domino_trace::workload::WorkloadSpec;

use crate::config::SystemConfig;
use crate::roster::System;
use crate::timing::{CoreEngine, TimingReport};

/// Result of a multi-core run.
#[derive(Debug, Clone)]
pub struct MulticoreReport {
    /// Per-core timing reports (traffic is chip-wide on each, see
    /// [`MulticoreReport::chip`]).
    pub per_core: Vec<TimingReport>,
    /// Chip-level wall time: the slowest core.
    pub total_ns: f64,
    /// Chip-level off-chip traffic.
    pub chip: domino_mem::dram::TrafficStats,
}

impl MulticoreReport {
    /// Chip bandwidth in GB/s (bytes per ns).
    pub fn bandwidth_gbps(&self) -> f64 {
        if self.total_ns == 0.0 {
            0.0
        } else {
            self.chip.total() as f64 / self.total_ns
        }
    }

    /// Utilization of the peak channel bandwidth.
    pub fn utilization(&self, system: &SystemConfig) -> f64 {
        self.bandwidth_gbps() / system.memory.bandwidth_bytes_per_ns
    }

    /// Aggregate throughput (instructions per ns across cores) — the
    /// paper's system-throughput metric up to the clock constant.
    pub fn throughput(&self) -> f64 {
        if self.total_ns == 0.0 {
            0.0
        } else {
            self.per_core
                .iter()
                .map(|r| r.instructions as f64)
                .sum::<f64>()
                / self.total_ns
        }
    }

    /// Speedup of this run over a baseline run (throughput ratio).
    pub fn speedup_over(&self, baseline: &MulticoreReport) -> f64 {
        if baseline.throughput() == 0.0 {
            1.0
        } else {
            self.throughput() / baseline.throughput()
        }
    }
}

/// Runs `system.cores` cores, each with its own trace and prefetcher,
/// over a shared LLC and memory channel. The core earliest in simulated
/// time steps next, one event at a time, with the same fused L1 probe as
/// single-core timing ([`crate::timing::run_timing`]).
///
/// `traces[i]` and `prefetchers[i]` belong to core `i`.
///
/// # Panics
///
/// Panics if the numbers of traces and prefetchers differ.
pub fn run_multicore(
    system: &SystemConfig,
    traces: Vec<Vec<AccessEvent>>,
    mut prefetchers: Vec<Box<dyn Prefetcher>>,
) -> MulticoreReport {
    assert_eq!(
        traces.len(),
        prefetchers.len(),
        "one prefetcher per core required"
    );
    let mut l2 = SetAssocCache::new(system.l2);
    let mut dram = Dram::new(system.memory);
    for (p, trace) in prefetchers.iter_mut().zip(traces.iter()) {
        p.reserve(trace.len());
    }
    let mut tels: Vec<Telemetry> = traces.iter().map(|_| Telemetry::off()).collect();
    let mut engines: Vec<CoreEngine<'_>> = prefetchers
        .iter_mut()
        .zip(tels.iter_mut())
        .map(|(p, tel)| CoreEngine::new(system, p.as_mut(), tel))
        .collect();
    let mut cursors = vec![0usize; traces.len()];
    loop {
        // Advance the core that is earliest in simulated time.
        let mut next: Option<usize> = None;
        for (i, engine) in engines.iter().enumerate() {
            if cursors[i] < traces[i].len() {
                match next {
                    Some(j) if engines[j].now <= engine.now => {}
                    _ => next = Some(i),
                }
            }
        }
        let Some(i) = next else { break };
        engines[i].step(&traces[i][cursors[i]], &mut l2, &mut dram);
        cursors[i] += 1;
    }
    let chip = dram.traffic();
    let per_core: Vec<TimingReport> = engines.into_iter().map(|e| e.finish(chip)).collect();
    let total_ns = per_core.iter().map(|r| r.total_ns).fold(0.0f64, f64::max);
    MulticoreReport {
        per_core,
        total_ns,
        chip,
    }
}

/// Convenience: run `system.cores` copies of one workload (distinct
/// seeds per core, as four server cores handle different requests of the
/// same application) under one prefetching system.
pub fn run_homogeneous(
    system: &SystemConfig,
    spec: &WorkloadSpec,
    events: usize,
    seed: u64,
    sys: System,
    degree: usize,
) -> MulticoreReport {
    let cores = system.cores as usize;
    let traces: Vec<Vec<AccessEvent>> = (0..cores)
        .map(|c| {
            spec.generator(seed.wrapping_add(c as u64 * 0x9e37))
                .take(events)
                .collect()
        })
        .collect();
    let prefetchers: Vec<Box<dyn Prefetcher>> = (0..cores).map(|_| sys.build(degree)).collect();
    run_multicore(system, traces, prefetchers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_trace::workload::catalog;

    fn small(sys: System) -> MulticoreReport {
        let system = SystemConfig::paper();
        run_homogeneous(&system, &catalog::oltp(), 20_000, 42, sys, 4)
    }

    #[test]
    fn four_cores_run_to_completion() {
        let r = small(System::Baseline);
        assert_eq!(r.per_core.len(), 4);
        for core in &r.per_core {
            assert!(core.total_ns > 0.0);
            assert!(core.instructions > 0);
        }
        assert!(r.total_ns >= r.per_core[0].total_ns);
    }

    #[test]
    fn chip_traffic_and_utilization_are_sane() {
        let system = SystemConfig::paper();
        let r = small(System::Domino);
        assert!(r.chip.total() > 0);
        let u = r.utilization(&system);
        assert!((0.0..1.0).contains(&u), "utilization {u}");
        // Four cores consume more than one core's traffic.
        let single = {
            let trace: Vec<_> = catalog::oltp().generator(42).take(20_000).collect();
            let mut p = System::Domino.build(4);
            crate::timing::run_timing(&system, &trace, p.as_mut())
        };
        assert!(r.chip.total() > single.traffic.total());
    }

    #[test]
    fn prefetching_increases_chip_bandwidth() {
        let base = small(System::Baseline);
        let dom = small(System::Domino);
        assert!(
            dom.bandwidth_gbps() > base.bandwidth_gbps(),
            "domino {} vs baseline {}",
            dom.bandwidth_gbps(),
            base.bandwidth_gbps()
        );
    }

    #[test]
    fn utilization_stays_in_paper_range() {
        // §V-D: baseline workloads use a small fraction of the channel;
        // Domino raises utilization but leaves ample headroom.
        let system = SystemConfig::paper();
        let base = small(System::Baseline);
        let dom = small(System::Domino);
        assert!(
            base.utilization(&system) < 0.25,
            "baseline {:.3}",
            base.utilization(&system)
        );
        assert!(
            dom.utilization(&system) < 0.60,
            "domino {:.3}",
            dom.utilization(&system)
        );
        assert!(dom.utilization(&system) > base.utilization(&system));
        // Prefetching must not collapse chip throughput even at this
        // warmup-dominated scale.
        assert!(dom.speedup_over(&base) > 0.8);
    }

    #[test]
    #[should_panic(expected = "one prefetcher per core")]
    fn mismatched_inputs_panic() {
        let system = SystemConfig::paper();
        run_multicore(&system, vec![vec![]], vec![]);
    }
}
