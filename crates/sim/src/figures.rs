//! Runners regenerating every table and figure of the paper's evaluation.
//!
//! Each `figNN` function runs the corresponding experiment at a given
//! [`Scale`] and returns one or more [`FigureTable`]s that print the same
//! rows/series the paper plots. `examples/figures.rs` runs them all at
//! full scale; the benches run them at reduced scale.
//!
//! Every runner submits its independent (workload × prefetcher ×
//! parameter) cells to the parallel executor in [`crate::exec`] and
//! assembles rows from the deterministically-ordered results, with the
//! per-(spec, seed, events) trace generated once in
//! [`crate::trace_cache`] and shared across cells.

use domino_prefetchers::LookupAnalyzer;
use domino_sequitur::oracle::{oracle_replay, OracleConfig};
use domino_telemetry::Telemetry;
use domino_trace::workload::{catalog, WorkloadSpec};

use crate::config::SystemConfig;
use crate::engine::{run_coverage_observed, run_coverage_warmed, CoverageReport};
use crate::exec;
use crate::observe;
use crate::report::FigureTable;
use crate::roster::System;
use crate::timing::{run_timing_observed, TimingReport};
use crate::trace_cache::{shared_miss_sequence, shared_trace};

/// A figure cell: one independent run, boxed for the sweep executor.
type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// How much trace to simulate per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Accesses generated per workload.
    pub events: usize,
    /// Workload generator seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            events: 300_000,
            seed: 42,
        }
    }
}

impl Scale {
    /// A small scale for benches and smoke tests.
    pub fn small() -> Self {
        Scale {
            events: 60_000,
            seed: 42,
        }
    }

    /// Warmup prefix excluded from measurement (the paper measures from
    /// warmed checkpoints, §IV-C): the first quarter of the trace.
    pub fn warmup(&self) -> usize {
        self.events / 4
    }
}

/// Runs one coverage cell. A collecting cell runs under
/// [`observe::telemetry`] and deposits its telemetry report and
/// flight-recorder trace, if observation is configured; either way the
/// cell takes the engine's one loop.
fn coverage_of(
    system: &SystemConfig,
    spec: &WorkloadSpec,
    scale: &Scale,
    sys: System,
    degree: usize,
    collect: bool,
) -> CoverageReport {
    let trace = shared_trace(spec, scale.events, scale.seed);
    let mut p = sys.build(degree);
    let mut tel = cell_telemetry(collect);
    let r = run_coverage_observed(system, &trace, p.as_mut(), scale.warmup(), &mut tel);
    deposit_report(tel, spec, scale, sys, "coverage", p.as_ref());
    r
}

/// [`coverage_of`] for the timing engine.
fn timing_of(
    system: &SystemConfig,
    spec: &WorkloadSpec,
    scale: &Scale,
    sys: System,
    degree: usize,
    collect: bool,
) -> TimingReport {
    let trace = shared_trace(spec, scale.events, scale.seed);
    let mut p = sys.build(degree);
    let mut tel = cell_telemetry(collect);
    let r = run_timing_observed(system, &trace, p.as_mut(), scale.warmup(), &mut tel);
    deposit_report(tel, spec, scale, sys, "timing", p.as_ref());
    r
}

/// The telemetry handle of a figure cell: the configured observation
/// for collecting cells, off for the rest.
fn cell_telemetry(collect: bool) -> Telemetry {
    if collect {
        observe::telemetry()
    } else {
        Telemetry::off()
    }
}

/// Labels a finished telemetry report with its cell identity and the
/// prefetcher's end-of-run counters, and deposits it in the collector.
/// A flight-recorder trace, if one was enabled, is detached first and
/// deposited separately — the epoch report is only emitted when epoch
/// telemetry itself is on, so trace-only runs produce no empty JSON.
fn deposit_report(
    mut tel: Telemetry,
    spec: &WorkloadSpec,
    scale: &Scale,
    sys: System,
    kind: &str,
    prefetcher: &dyn domino_mem::interface::Prefetcher,
) {
    if let Some(recorder) = tel.take_tracer() {
        let meta = domino_telemetry::TraceMeta {
            workload: spec.name.clone(),
            component: sys.label(),
            kind: kind.to_string(),
            events: scale.events as u64,
            seed: scale.seed,
            warmup: scale.warmup() as u64,
        };
        observe::record_trace(meta, recorder);
    }
    if !tel.is_on() {
        return;
    }
    // The engines flush the partial tail themselves, so the finish
    // closure never runs.
    let mut report = tel.finish(|_| {});
    report.workload = spec.name.clone();
    report.component = sys.label();
    report.kind = kind.to_string();
    report.events = scale.events as u64;
    report.seed = scale.seed;
    report.warmup = scale.warmup() as u64;
    prefetcher.emit_counters(&mut |name: &str, value: u64| {
        report.counters.push((name.to_string(), value));
    });
    observe::record(report);
}

fn oracle_of(
    system: &SystemConfig,
    spec: &WorkloadSpec,
    scale: &Scale,
) -> domino_sequitur::OracleReport {
    let seq = shared_miss_sequence(system, spec, scale.events, scale.seed);
    // The warmup is defined in accesses; misses are the large majority of
    // accesses in these models, so scale the prefix by the miss ratio.
    let warmup = (scale.warmup() as f64 * seq.len() as f64 / scale.events.max(1) as f64) as usize;
    oracle_replay(
        &seq,
        &OracleConfig {
            warmup,
            ..OracleConfig::default()
        },
    )
}

/// Figure 1 — read-miss coverage of STMS and ISB (unlimited storage)
/// versus the Sequitur-oracle opportunity, prefetch degree 1.
pub fn fig01(scale: &Scale) -> FigureTable {
    let system = SystemConfig::paper();
    let scale = *scale;
    let mut t = FigureTable::new(
        "Figure 1 — miss coverage vs temporal opportunity (degree 1)",
        "workload",
        vec!["ISB".into(), "STMS".into(), "Opportunity".into()],
    );
    t.percent = true;
    let specs = catalog::all();
    let mut jobs: Vec<Job<f64>> = Vec::new();
    for spec in &specs {
        for sys in [System::Isb, System::Stms] {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                coverage_of(&system, &spec, &scale, sys, 1, false).coverage()
            }));
        }
        let spec = spec.clone();
        jobs.push(Box::new(move || {
            oracle_of(&system, &spec, &scale).coverage()
        }));
    }
    let results = exec::sweep(jobs);
    for (spec, row) in specs.iter().zip(results.chunks(3)) {
        t.push_row(spec.name.clone(), row.to_vec());
    }
    t.push_mean_row("Average");
    t
}

/// Figure 2 — average stream length with STMS, Digram, and the Sequitur
/// oracle ("a stream is the sequence of consecutive correct prefetches").
pub fn fig02(scale: &Scale) -> FigureTable {
    let system = SystemConfig::paper();
    let scale = *scale;
    let mut t = FigureTable::new(
        "Figure 2 — average stream length",
        "workload",
        vec!["STMS".into(), "Digram".into(), "Sequitur".into()],
    );
    let specs = catalog::all();
    let mut jobs: Vec<Job<f64>> = Vec::new();
    for spec in &specs {
        for sys in [System::Stms, System::Digram] {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                coverage_of(&system, &spec, &scale, sys, 1, false).mean_stream_length()
            }));
        }
        let spec = spec.clone();
        jobs.push(Box::new(move || {
            oracle_of(&system, &spec, &scale).mean_stream_length()
        }));
    }
    let results = exec::sweep(jobs);
    for (spec, row) in specs.iter().zip(results.chunks(3)) {
        t.push_row(spec.name.clone(), row.to_vec());
    }
    t.push_mean_row("Average");
    t
}

fn lookup_stats(
    system: &SystemConfig,
    spec: &WorkloadSpec,
    scale: &Scale,
    max_depth: usize,
) -> domino_prefetchers::LookupDepthStats {
    let seq = shared_miss_sequence(system, spec, scale.events, scale.seed);
    let mut analyzer = LookupAnalyzer::new(max_depth);
    for &v in seq.iter() {
        analyzer.push(domino_trace::addr::LineAddr::new(v));
    }
    analyzer.stats().clone()
}

/// Shared body of Figures 3 and 4: one lookup-depth analysis per
/// workload, fanned across the executor.
fn lookup_depth_table(
    scale: &Scale,
    title: &str,
    extract: fn(&domino_prefetchers::LookupDepthStats) -> Vec<f64>,
) -> FigureTable {
    let system = SystemConfig::paper();
    let scale = *scale;
    let cols: Vec<String> = (1..=5).map(|k| format!("{k}-addr")).collect();
    let mut t = FigureTable::new(title, "workload", cols);
    t.percent = true;
    let specs = catalog::all();
    let jobs: Vec<Job<Vec<f64>>> = specs
        .iter()
        .map(|spec| {
            let spec = spec.clone();
            Box::new(move || extract(&lookup_stats(&system, &spec, &scale, 5))) as Job<Vec<f64>>
        })
        .collect();
    let results = exec::sweep(jobs);
    for (spec, row) in specs.iter().zip(results) {
        t.push_row(spec.name.clone(), row);
    }
    t.push_mean_row("Average");
    t
}

/// Figure 3 — fraction of matching lookups that predict correctly, as a
/// function of lookup depth (1..=5).
pub fn fig03(scale: &Scale) -> FigureTable {
    lookup_depth_table(
        scale,
        "Figure 3 — P(correct | match) by lookup depth",
        |stats| stats.correct_given_match(),
    )
}

/// Figure 4 — fraction of lookups that find a match, by lookup depth.
pub fn fig04(scale: &Scale) -> FigureTable {
    lookup_depth_table(scale, "Figure 4 — P(match) by lookup depth", |stats| {
        stats.match_fractions()
    })
}

/// Figure 5 — coverage and overpredictions of the recursive multi-depth
/// prefetcher for maximum depths 1..=5 (degree 1, unlimited storage).
pub fn fig05(scale: &Scale) -> Vec<FigureTable> {
    let system = SystemConfig::paper();
    let scale = *scale;
    let cols: Vec<String> = (1..=5).map(|k| format!("N={k}")).collect();
    let mut cov = FigureTable::new(
        "Figure 5a — coverage by maximum lookup depth (degree 1)",
        "workload",
        cols.clone(),
    );
    cov.percent = true;
    let mut over = FigureTable::new(
        "Figure 5b — overpredictions by maximum lookup depth (degree 1)",
        "workload",
        cols,
    );
    over.percent = true;
    let specs = catalog::all();
    let mut jobs: Vec<Job<(f64, f64)>> = Vec::new();
    for spec in &specs {
        for n in 1..=5 {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                let r = coverage_of(&system, &spec, &scale, System::MultiDepth(n), 1, false);
                (r.coverage(), r.overprediction_rate())
            }));
        }
    }
    let results = exec::sweep(jobs);
    for (spec, cells) in specs.iter().zip(results.chunks(5)) {
        cov.push_row(spec.name.clone(), cells.iter().map(|c| c.0).collect());
        over.push_row(spec.name.clone(), cells.iter().map(|c| c.1).collect());
    }
    cov.push_mean_row("Average");
    over.push_mean_row("Average");
    vec![cov, over]
}

/// Figure 6 — stream-start timeliness: serial metadata round trips (and
/// the implied nanoseconds) before a stream's first prefetch.
pub fn fig06(scale: &Scale) -> FigureTable {
    let system = SystemConfig::paper();
    let scale = *scale;
    let lat = system.memory.latency_ns;
    let mut t = FigureTable::new(
        "Figure 6 — serial metadata round trips before the first prefetch of a stream",
        "workload",
        vec![
            "STMS trips".into(),
            "Domino trips".into(),
            "STMS ns".into(),
            "Domino ns".into(),
        ],
    );
    let specs = catalog::all();
    let mut jobs: Vec<Job<f64>> = Vec::new();
    for spec in &specs {
        for sys in [System::Stms, System::Domino] {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                coverage_of(&system, &spec, &scale, sys, 4, false).mean_first_prefetch_trips()
            }));
        }
    }
    let results = exec::sweep(jobs);
    for (spec, cells) in specs.iter().zip(results.chunks(2)) {
        let (stms, dom) = (cells[0], cells[1]);
        t.push_row(spec.name.clone(), vec![stms, dom, stms * lat, dom * lat]);
    }
    t.push_mean_row("Average");
    t
}

/// Shared body of Figures 9 and 10: Domino coverage over a sweep of one
/// storage parameter, every (workload × size) cell run in parallel.
fn domino_size_sweep(
    scale: &Scale,
    title: &str,
    sizes: &[(usize, &str)],
    cfg_of: fn(usize) -> domino::DominoConfig,
) -> FigureTable {
    use domino::Domino;
    let system = SystemConfig::paper();
    let scale = *scale;
    let cols: Vec<String> = sizes.iter().map(|&(_, n)| n.to_string()).collect();
    let mut t = FigureTable::new(title, "workload", cols);
    t.percent = true;
    let specs = catalog::all();
    let mut jobs: Vec<Job<f64>> = Vec::new();
    for spec in &specs {
        for &(size, _) in sizes {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                let trace = shared_trace(&spec, scale.events, scale.seed);
                let mut p = Domino::new(cfg_of(size));
                run_coverage_warmed(&system, &trace, &mut p, scale.warmup()).coverage()
            }));
        }
    }
    let results = exec::sweep(jobs);
    for (spec, row) in specs.iter().zip(results.chunks(sizes.len())) {
        t.push_row(spec.name.clone(), row.to_vec());
    }
    t.push_mean_row("Average");
    t
}

/// Figure 9 — Domino coverage versus History Table entries (unbounded
/// EIT), degree 4.
pub fn fig09(scale: &Scale) -> FigureTable {
    use domino::DominoConfig;
    let sizes: [(usize, &str); 6] = [
        (1 << 12, "4K"),
        (1 << 14, "16K"),
        (1 << 16, "64K"),
        (1 << 18, "256K"),
        (1 << 20, "1M"),
        (16 << 20, "16M"),
    ];
    domino_size_sweep(
        scale,
        "Figure 9 — Domino coverage vs HT entries (EIT unbounded, degree 4)",
        &sizes,
        |entries| DominoConfig {
            ht_entries: entries,
            eit: domino::EitConfig::unbounded(),
            ..DominoConfig::default()
        },
    )
}

/// Figure 10 — Domino coverage versus EIT rows (HT at its 16 M-entry
/// paper size), degree 4.
pub fn fig10(scale: &Scale) -> FigureTable {
    use domino::{DominoConfig, EitConfig};
    let sizes: [(usize, &str); 6] = [
        (1 << 8, "256"),
        (1 << 10, "1K"),
        (1 << 12, "4K"),
        (1 << 14, "16K"),
        (1 << 16, "64K"),
        (2 << 20, "2M"),
    ];
    domino_size_sweep(
        scale,
        "Figure 10 — Domino coverage vs EIT rows (HT = 16 M entries, degree 4)",
        &sizes,
        |rows| DominoConfig {
            eit: EitConfig {
                rows,
                ..EitConfig::default()
            },
            ..DominoConfig::default()
        },
    )
}

/// Shared body of Figures 11 and 13: coverage and overpredictions for the
/// full roster at a given degree, plus the Sequitur-oracle opportunity.
/// With `collect` set, each roster cell also deposits a telemetry report
/// when an epoch length is configured (Figure 13 is the collection
/// vehicle: it covers every roster prefetcher at the paper's headline
/// degree without extra runs).
fn roster_comparison(
    scale: &Scale,
    degree: usize,
    figure: &str,
    collect: bool,
) -> Vec<FigureTable> {
    let system = SystemConfig::paper();
    let scale = *scale;
    let mut cols: Vec<String> = System::paper_roster().iter().map(|s| s.label()).collect();
    cols.push("Sequitur".into());
    let mut cov = FigureTable::new(
        format!("{figure}a — coverage (degree {degree})"),
        "workload",
        cols.clone(),
    );
    cov.percent = true;
    let mut over = FigureTable::new(
        format!("{figure}b — overpredictions (degree {degree})"),
        "workload",
        cols,
    );
    over.percent = true;
    let specs = catalog::all();
    let roster = System::paper_roster();
    let per_row = roster.len() + 1;
    let mut jobs: Vec<Job<(f64, f64)>> = Vec::new();
    for spec in &specs {
        for sys in roster {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                let r = coverage_of(&system, &spec, &scale, sys, degree, collect);
                (r.coverage(), r.overprediction_rate())
            }));
        }
        let spec = spec.clone();
        jobs.push(Box::new(move || {
            (oracle_of(&system, &spec, &scale).coverage(), f64::NAN)
        }));
    }
    let results = exec::sweep(jobs);
    for (spec, cells) in specs.iter().zip(results.chunks(per_row)) {
        cov.push_row(spec.name.clone(), cells.iter().map(|c| c.0).collect());
        over.push_row(spec.name.clone(), cells.iter().map(|c| c.1).collect());
    }
    cov.push_mean_row("Average");
    over.rows.push("Average".into());
    over.values.push({
        let n = over.values.len();
        let mut means = vec![0.0; over.columns.len()];
        for row in &over.values {
            for (m, v) in means.iter_mut().zip(row) {
                if !v.is_nan() {
                    *m += v;
                }
            }
        }
        for (i, m) in means.iter_mut().enumerate() {
            *m /= n as f64;
            if over.columns[i] == "Sequitur" {
                *m = f64::NAN;
            }
        }
        means
    });
    vec![cov, over]
}

/// Figure 11 — the roster at prefetch degree 1.
pub fn fig11(scale: &Scale) -> Vec<FigureTable> {
    roster_comparison(scale, 1, "Figure 11", false)
}

/// Figure 12 — cumulative histogram of oracle stream lengths.
pub fn fig12(scale: &Scale) -> FigureTable {
    let system = SystemConfig::paper();
    let scale = *scale;
    let bounds = domino_sequitur::histogram::FIG12_BOUNDS;
    let cols: Vec<String> = bounds
        .iter()
        .map(|&b| {
            if b == u64::MAX {
                "128+".into()
            } else {
                format!("≤{b}")
            }
        })
        .collect();
    let mut t = FigureTable::new(
        "Figure 12 — cumulative fraction of streams by length (Sequitur oracle)",
        "workload",
        cols,
    );
    t.percent = true;
    let specs = catalog::all();
    let jobs: Vec<Job<Vec<f64>>> = specs
        .iter()
        .map(|spec| {
            let spec = spec.clone();
            Box::new(move || {
                oracle_of(&system, &spec, &scale)
                    .stream_lengths
                    .cumulative_fractions()
            }) as Job<Vec<f64>>
        })
        .collect();
    let results = exec::sweep(jobs);
    for (spec, row) in specs.iter().zip(results) {
        t.push_row(spec.name.clone(), row);
    }
    t.push_mean_row("Average");
    t
}

/// Figure 13 — the roster at prefetch degree 4. When an epoch length is
/// configured (see [`crate::observe`]), its cells collect the coverage
/// telemetry series for every roster prefetcher.
pub fn fig13(scale: &Scale) -> Vec<FigureTable> {
    roster_comparison(scale, 4, "Figure 13", true)
}

/// Figure 14 — speedup over the no-prefetcher baseline under the interval
/// timing model, degree 4.
pub fn fig14(scale: &Scale) -> FigureTable {
    let system = SystemConfig::paper();
    let scale = *scale;
    let roster = System::paper_roster();
    let cols: Vec<String> = roster.iter().map(|s| s.label()).collect();
    let mut t = FigureTable::new(
        "Figure 14 — speedup over baseline (degree 4)",
        "workload",
        cols,
    );
    let specs = catalog::all();
    let per_row = roster.len() + 1;
    let mut jobs: Vec<Job<TimingReport>> = Vec::new();
    for spec in &specs {
        {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                timing_of(&system, &spec, &scale, System::Baseline, 1, true)
            }));
        }
        for sys in roster {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                timing_of(&system, &spec, &scale, sys, 4, true)
            }));
        }
    }
    let results = exec::sweep(jobs);
    for (spec, cells) in specs.iter().zip(results.chunks(per_row)) {
        let baseline = &cells[0];
        t.push_row(
            spec.name.clone(),
            cells[1..]
                .iter()
                .map(|r| r.speedup_over(baseline))
                .collect(),
        );
    }
    t.push_gmean_row("GMean");
    t
}

/// Figure 15 — off-chip traffic overhead of STMS, Digram and Domino over
/// the baseline, split into incorrect prefetches, metadata updates and
/// metadata reads (averaged over workloads, degree 4).
pub fn fig15(scale: &Scale) -> FigureTable {
    let system = SystemConfig::paper();
    let scale = *scale;
    let roster = [System::Stms, System::Digram, System::Domino];
    let mut t = FigureTable::new(
        "Figure 15 — off-chip traffic overhead over baseline (degree 4, average of workloads)",
        "prefetcher",
        vec![
            "Incorrect".into(),
            "MetaUpdate".into(),
            "MetaRead".into(),
            "Total".into(),
        ],
    );
    t.percent = true;
    let specs = catalog::all();
    let mut jobs: Vec<Job<(f64, f64, f64)>> = Vec::new();
    for sys in roster {
        for spec in &specs {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                let r = coverage_of(&system, &spec, &scale, sys, 4, false);
                let demand = r.demand_bytes() as f64;
                (
                    r.incorrect_prefetch_bytes() as f64 / demand,
                    r.metadata_write_bytes() as f64 / demand,
                    r.metadata_read_bytes() as f64 / demand,
                )
            }));
        }
    }
    let results = exec::sweep(jobs);
    let n = specs.len() as f64;
    for (sys, cells) in roster.iter().zip(results.chunks(specs.len())) {
        let incorrect = cells.iter().map(|c| c.0).sum::<f64>() / n;
        let update = cells.iter().map(|c| c.1).sum::<f64>() / n;
        let read = cells.iter().map(|c| c.2).sum::<f64>() / n;
        t.push_row(
            sys.label(),
            vec![incorrect, update, read, incorrect + update + read],
        );
    }
    t
}

/// §V-D — chip bandwidth utilization on the quad-core platform: four
/// cores of one workload sharing the LLC and channel, baseline versus
/// Domino. The paper reports baseline consumption up to 8 GB/s and
/// Domino utilization between 8.7 % (MapReduce-C) and 32.8 %
/// (Web Apache) of the 37.5 GB/s channel.
pub fn bandwidth_utilization(scale: &Scale) -> FigureTable {
    use crate::multicore::run_homogeneous;
    let system = SystemConfig::paper();
    let scale = *scale;
    let mut t = FigureTable::new(
        "§V-D — chip bandwidth, 4 cores (GB/s and % of 37.5 GB/s peak)",
        "workload",
        vec![
            "Base GB/s".into(),
            "Domino GB/s".into(),
            "Base util".into(),
            "Domino util".into(),
        ],
    );
    // A quarter of the single-core scale per core keeps the total work
    // comparable to the other figures.
    let events = (scale.events / 2).max(10_000);
    let specs = catalog::all();
    let mut jobs: Vec<Job<crate::multicore::MulticoreReport>> = Vec::new();
    for spec in &specs {
        for (sys, degree) in [(System::Baseline, 1), (System::Domino, 4)] {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                run_homogeneous(&system, &spec, events, scale.seed, sys, degree)
            }));
        }
    }
    let results = exec::sweep(jobs);
    for (spec, cells) in specs.iter().zip(results.chunks(2)) {
        let (base, dom) = (&cells[0], &cells[1]);
        t.push_row(
            spec.name.clone(),
            vec![
                base.bandwidth_gbps(),
                dom.bandwidth_gbps(),
                base.utilization(&system),
                dom.utilization(&system),
            ],
        );
    }
    t.push_mean_row("Average");
    t
}

/// Figure 16 — spatio-temporal prefetching: VLDP, Domino, and the stack
/// of both (degree 4 coverage).
pub fn fig16(scale: &Scale) -> FigureTable {
    let system = SystemConfig::paper();
    let scale = *scale;
    let mut t = FigureTable::new(
        "Figure 16 — spatio-temporal coverage (degree 4)",
        "workload",
        vec!["VLDP".into(), "Domino".into(), "VLDP+Domino".into()],
    );
    t.percent = true;
    let specs = catalog::all();
    let roster = [System::Vldp, System::Domino, System::VldpPlusDomino];
    let mut jobs: Vec<Job<f64>> = Vec::new();
    for spec in &specs {
        for sys in roster {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                coverage_of(&system, &spec, &scale, sys, 4, false).coverage()
            }));
        }
    }
    let results = exec::sweep(jobs);
    for (spec, row) in specs.iter().zip(results.chunks(roster.len())) {
        t.push_row(spec.name.clone(), row.to_vec());
    }
    t.push_mean_row("Average");
    t
}

/// Extended roster (beyond the paper's Figure 11): every prefetcher in
/// the library, including the classic designs the paper cites as related
/// work — next-line, PC-stride, GHB \[11\], Markov \[8\], and SMS \[33\] —
/// under identical conditions at degree 4.
pub fn extended_roster(scale: &Scale) -> Vec<FigureTable> {
    let system = SystemConfig::paper();
    let scale = *scale;
    let roster = [
        System::NextLine,
        System::Stride,
        System::Ghb,
        System::Markov,
        System::Sms,
        System::Vldp,
        System::Isb,
        System::Stms,
        System::Digram,
        System::DominoNaive,
        System::Domino,
    ];
    let cols: Vec<String> = roster.iter().map(|s| s.label()).collect();
    let mut cov = FigureTable::new(
        "Extended roster — coverage (degree 4)",
        "workload",
        cols.clone(),
    );
    cov.percent = true;
    let mut over = FigureTable::new(
        "Extended roster — overpredictions (degree 4)",
        "workload",
        cols,
    );
    over.percent = true;
    let specs = catalog::all();
    let mut jobs: Vec<Job<(f64, f64)>> = Vec::new();
    for spec in &specs {
        for sys in roster {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                let r = coverage_of(&system, &spec, &scale, sys, 4, false);
                (r.coverage(), r.overprediction_rate())
            }));
        }
    }
    let results = exec::sweep(jobs);
    for (spec, cells) in specs.iter().zip(results.chunks(roster.len())) {
        cov.push_row(spec.name.clone(), cells.iter().map(|c| c.0).collect());
        over.push_row(spec.name.clone(), cells.iter().map(|c| c.1).collect());
    }
    cov.push_mean_row("Average");
    over.push_mean_row("Average");
    vec![cov, over]
}

/// The modern-rivals roster (ROADMAP item 1): the paper's two strongest
/// temporal baselines, Domino itself, and the two post-Domino rivals.
pub fn rivals_roster() -> [System; 5] {
    [
        System::Stms,
        System::Digram,
        System::Domino,
        System::Pangloss,
        System::Triangel,
    ]
}

/// Modern-rivals head-to-head (beyond the paper; ROADMAP item 1):
/// STMS, Digram, Domino, Pangloss and Triangel compared on coverage,
/// prefetch accuracy, off-chip metadata traffic per demand byte, and
/// timing-model speedup across the Table-II workload catalog, all at
/// degree 4.
///
/// The traffic table is the contrast story: Domino (and STMS/Digram)
/// pay off-chip reads and writes for their reach, while the two on-chip
/// rivals are structurally at zero — their cost shows up as coverage
/// lost to their bounded slabs instead.
pub fn rivals(scale: &Scale) -> Vec<FigureTable> {
    let system = SystemConfig::paper();
    let scale = *scale;
    let roster = rivals_roster();
    let cols: Vec<String> = roster.iter().map(|s| s.label()).collect();
    let mut cov = FigureTable::new("Rivals — coverage (degree 4)", "workload", cols.clone());
    cov.percent = true;
    let mut acc = FigureTable::new(
        "Rivals — prefetch accuracy (degree 4)",
        "workload",
        cols.clone(),
    );
    acc.percent = true;
    let mut traffic = FigureTable::new(
        "Rivals — off-chip metadata traffic per demand byte (degree 4)",
        "workload",
        cols.clone(),
    );
    traffic.percent = true;
    let mut speed = FigureTable::new(
        "Rivals — speedup over baseline (degree 4)",
        "workload",
        cols,
    );
    let specs = catalog::all();
    // Row layout mirrors Figure 14: the degree-1 baseline timing first,
    // then one combined coverage+timing cell per rival.
    let per_row = roster.len() + 1;
    type RivalCell = (Option<CoverageReport>, TimingReport);
    let mut jobs: Vec<Job<RivalCell>> = Vec::new();
    for spec in &specs {
        {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                (
                    None,
                    timing_of(&system, &spec, &scale, System::Baseline, 1, true),
                )
            }));
        }
        for sys in roster {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                (
                    Some(coverage_of(&system, &spec, &scale, sys, 4, true)),
                    timing_of(&system, &spec, &scale, sys, 4, true),
                )
            }));
        }
    }
    let results = exec::sweep(jobs);
    for (spec, cells) in specs.iter().zip(results.chunks(per_row)) {
        let baseline = &cells[0].1;
        let reports: Vec<&CoverageReport> = cells[1..]
            .iter()
            .map(|c| c.0.as_ref().expect("rival cells carry coverage"))
            .collect();
        cov.push_row(
            spec.name.clone(),
            reports.iter().map(|r| r.coverage()).collect(),
        );
        acc.push_row(
            spec.name.clone(),
            reports
                .iter()
                .map(|r| {
                    let issued = (r.covered + r.overpredictions) as f64;
                    if issued == 0.0 {
                        0.0
                    } else {
                        r.covered as f64 / issued
                    }
                })
                .collect(),
        );
        traffic.push_row(
            spec.name.clone(),
            reports
                .iter()
                .map(|r| {
                    (r.metadata_read_bytes() + r.metadata_write_bytes()) as f64
                        / r.demand_bytes().max(1) as f64
                })
                .collect(),
        );
        speed.push_row(
            spec.name.clone(),
            cells[1..]
                .iter()
                .map(|c| c.1.speedup_over(baseline))
                .collect(),
        );
    }
    cov.push_mean_row("Average");
    acc.push_mean_row("Average");
    traffic.push_mean_row("Average");
    speed.push_gmean_row("GMean");
    vec![cov, acc, traffic, speed]
}

/// Cross-validation of the two opportunity measures: the Sequitur
/// *grammar* coverage (fraction of misses inside repeated rules) versus
/// the longest-stream *oracle* replay the figures use. The two are
/// independent algorithms over the same sequence; they should agree on
/// ordering and be close in magnitude.
pub fn opportunity_methods(scale: &Scale) -> FigureTable {
    use domino_sequitur::{analysis, Sequitur};
    let system = SystemConfig::paper();
    let scale = *scale;
    let mut t = FigureTable::new(
        "Opportunity measures — Sequitur grammar vs longest-stream oracle",
        "workload",
        vec!["Grammar".into(), "Oracle".into()],
    );
    t.percent = true;
    // The grammar is O(n) but allocation-heavy; cap its input.
    let cap = scale.events.min(150_000);
    let specs = catalog::all();
    let jobs: Vec<Job<Vec<f64>>> = specs
        .iter()
        .map(|spec| {
            let spec = spec.clone();
            Box::new(move || {
                let seq = shared_miss_sequence(&system, &spec, scale.events, scale.seed);
                let grammar = Sequitur::from_sequence(seq.iter().copied().take(cap));
                let g = analysis::grammar_coverage(&grammar);
                let o = oracle_replay(&seq, &OracleConfig::default()).coverage();
                vec![g, o]
            }) as Job<Vec<f64>>
        })
        .collect();
    let results = exec::sweep(jobs);
    for (spec, row) in specs.iter().zip(results) {
        t.push_row(spec.name.clone(), row);
    }
    t.push_mean_row("Average");
    t
}

/// MLP sensitivity (the paper's §V-C explanation for Web Search and
/// Media Streaming): speedup of Domino as a function of the fraction of
/// dependent (serializing) misses, on the OLTP model.
pub fn mlp_sensitivity(scale: &Scale) -> FigureTable {
    let system = SystemConfig::paper();
    let scale = *scale;
    let fracs = [0.1, 0.3, 0.5, 0.7, 0.9];
    let cols: Vec<String> = fracs.iter().map(|f| format!("dep={f:.1}")).collect();
    let mut t = FigureTable::new(
        "MLP sensitivity — Domino speedup vs dependent-miss fraction (OLTP model)",
        "system",
        cols,
    );
    let mut jobs: Vec<Job<TimingReport>> = Vec::new();
    for &f in &fracs {
        for (sys, degree) in [
            (System::Baseline, 1),
            (System::Stms, 4),
            (System::Domino, 4),
        ] {
            jobs.push(Box::new(move || {
                let mut spec = catalog::oltp();
                spec.temporal.dependent_frac = f;
                timing_of(&system, &spec, &scale, sys, degree, false)
            }));
        }
    }
    let results = exec::sweep(jobs);
    let mut stms_row = Vec::new();
    let mut domino_row = Vec::new();
    for cells in results.chunks(3) {
        let baseline = &cells[0];
        stms_row.push(cells[1].speedup_over(baseline));
        domino_row.push(cells[2].speedup_over(baseline));
    }
    t.push_row("STMS", stms_row);
    t.push_row("Domino", domino_row);
    t
}

/// Figure 14 with sampling statistics (the paper's SimFlex methodology:
/// "performance measurements are computed with 95 % confidence", §IV-C):
/// speedups measured over several workload seeds, reported as mean and
/// 95 % confidence half-width.
pub fn fig14_confidence(scale: &Scale, seeds: &[u64]) -> FigureTable {
    use crate::stats::Sample;
    let system = SystemConfig::paper();
    let scale = *scale;
    let mut t = FigureTable::new(
        format!(
            "Figure 14 with 95% confidence over {} seeds (degree 4)",
            seeds.len()
        ),
        "workload",
        vec![
            "STMS".into(),
            "STMS ±".into(),
            "Domino".into(),
            "Domino ±".into(),
        ],
    );
    let specs = catalog::all();
    // One job per (workload, seed): the baseline run is computed once and
    // shared by both prefetchers' speedups for that seed.
    let mut jobs: Vec<Job<(f64, f64)>> = Vec::new();
    for spec in &specs {
        for &seed in seeds {
            let spec = spec.clone();
            jobs.push(Box::new(move || {
                let seeded = Scale {
                    events: scale.events,
                    seed,
                };
                let baseline = timing_of(&system, &spec, &seeded, System::Baseline, 1, false);
                let stms = timing_of(&system, &spec, &seeded, System::Stms, 4, false);
                let domino = timing_of(&system, &spec, &seeded, System::Domino, 4, false);
                (stms.speedup_over(&baseline), domino.speedup_over(&baseline))
            }));
        }
    }
    let results = exec::sweep(jobs);
    for (spec, cells) in specs.iter().zip(results.chunks(seeds.len())) {
        let stms_speedups: Vec<f64> = cells.iter().map(|c| c.0).collect();
        let domino_speedups: Vec<f64> = cells.iter().map(|c| c.1).collect();
        let stms = Sample::of(&stms_speedups);
        let domino = Sample::of(&domino_speedups);
        t.push_row(
            spec.name.clone(),
            vec![stms.mean, stms.ci95, domino.mean, domino.ci95],
        );
    }
    t.push_mean_row("Average");
    t
}

/// Table I — the system parameters, rendered for the report.
pub fn table1() -> String {
    let c = SystemConfig::paper();
    format!(
        "Table I — evaluation parameters\n\
         Chip      : {} cores, {} GHz\n\
         Core      : {}-wide issue, {}-entry ROB, {}-entry LSQ\n\
         L1-D      : {} KB, {}-way, {}-cycle load-to-use, {} MSHRs\n\
         L2 (LLC)  : {} MB, {}-way, {}-cycle hit, {} MSHRs\n\
         Memory    : {} ns, {} GB/s\n\
         Prefetch  : {}-block buffer near L1-D\n",
        c.cores,
        c.clock_ghz,
        c.issue_width,
        c.rob_entries,
        c.lsq_entries,
        c.l1d.size_bytes / 1024,
        c.l1d.ways,
        c.l1d_latency_cycles,
        c.l1d_mshrs,
        c.l2.size_bytes / (1024 * 1024),
        c.l2.ways,
        c.l2_latency_cycles,
        c.l2_mshrs,
        c.memory.latency_ns,
        c.memory.bandwidth_bytes_per_ns,
        c.prefetch_buffer_blocks,
    )
}

/// Table II — the workload roster.
pub fn table2() -> String {
    let mut out = String::from("Table II — workload models\n");
    for spec in catalog::all() {
        out.push_str(&format!(
            "{:<16} temporal {:.0}% / spatial {:.0}% / noise {:.0}%, \
             junctions {:.0}%, dependent {:.0}%, gap {:.0} insts\n",
            spec.name,
            spec.mix.temporal * 100.0,
            spec.mix.spatial * 100.0,
            spec.mix.noise * 100.0,
            spec.temporal.junction_frac * 100.0,
            spec.temporal.dependent_frac * 100.0,
            spec.gap_mean,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            events: 12_000,
            seed: 7,
        }
    }

    #[test]
    fn fig01_has_nine_workloads_plus_average() {
        let t = fig01(&tiny());
        assert_eq!(t.rows.len(), 10);
        assert_eq!(t.columns.len(), 3);
        // Opportunity upper-bounds look sane.
        for r in 0..9 {
            let opp = t.values[r][2];
            assert!((0.0..=1.0).contains(&opp));
        }
    }

    #[test]
    fn fig12_rows_are_cumulative() {
        let t = fig12(&tiny());
        for row in &t.values {
            for w in row.windows(2) {
                assert!(w[1] + 1e-9 >= w[0], "not cumulative: {row:?}");
            }
            assert!((row.last().unwrap() - 1.0).abs() < 1e-9 || *row.last().unwrap() == 0.0);
        }
    }

    #[test]
    fn fig06_domino_needs_fewer_trips_than_stms() {
        let t = fig06(&tiny());
        let stms = t.value("Average", "STMS trips").unwrap();
        let dom = t.value("Average", "Domino trips").unwrap();
        assert!(
            dom < stms,
            "Domino should start streams faster: {dom} vs {stms}"
        );
    }

    #[test]
    fn fig14_confidence_shape_and_bounds() {
        let t = fig14_confidence(
            &Scale {
                events: 6_000,
                seed: 0,
            },
            &[1, 2, 3],
        );
        assert_eq!(t.rows.len(), 10);
        for row in &t.values {
            // Means positive, half-widths non-negative and not absurd.
            assert!(row[0] > 0.0 && row[2] > 0.0);
            assert!(row[1] >= 0.0 && row[3] >= 0.0);
            assert!(row[1] < row[0] && row[3] < row[2]);
        }
    }

    #[test]
    fn extended_figures_have_expected_shapes() {
        let scale = Scale {
            events: 8_000,
            seed: 3,
        };
        let roster = extended_roster(&scale);
        assert_eq!(roster.len(), 2);
        assert_eq!(roster[0].columns.len(), 11);
        assert_eq!(roster[0].rows.len(), 10);
        let opp = opportunity_methods(&scale);
        assert_eq!(opp.columns.len(), 2);
        let mlp = mlp_sensitivity(&Scale {
            events: 6_000,
            seed: 3,
        });
        assert_eq!(mlp.rows.len(), 2);
        assert_eq!(mlp.columns.len(), 5);
    }

    #[test]
    fn tables_render() {
        assert!(table1().contains("45 ns"));
        assert!(table2().contains("OLTP"));
    }
}
