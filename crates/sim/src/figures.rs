//! Runners regenerating every table and figure of the paper's evaluation.
//!
//! Each `figNN` function runs the corresponding experiment on a
//! [`Sweep`] and returns one or more [`FigureTable`]s that print the
//! same rows/series the paper plots. `examples/figures.rs` runs them all
//! at full scale; the benches run them at reduced scale.
//!
//! Several figures report the same runs: Domino's degree-4 coverage
//! feeds Figures 6, 13, 15 and 16 and the rivals tables. So a figure
//! names its cells, and the sweep runs the ones it has not run yet, once
//! each, on the parallel executor in [`crate::exec`]; figures run through
//! one sweep share every common cell. The per-(spec, seed, events) trace
//! is generated once in [`crate::trace_cache`] and shared across cells.

use std::collections::HashMap;

use domino_prefetchers::{LookupAnalyzer, LookupDepthStats};
use domino_sequitur::oracle::{oracle_replay, OracleConfig, OracleReport};
use domino_telemetry::{RunReport, Telemetry, TraceMeta};
use domino_trace::workload::{catalog, WorkloadSpec};

use crate::config::SystemConfig;
use crate::engine::{
    baseline_miss_sequence, run_coverage_observed, run_coverage_with_batch, CoverageReport,
};
use crate::exec;
use crate::observe::{TraceCell, DEFAULT_BATCH};
use crate::report::FigureTable;
use crate::roster::System;
use crate::timing::{run_timing_observed, run_timing_with_batch, TimingReport};
use crate::trace_cache::shared_trace;

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

/// One simulated run of a figure, keyed by everything its result
/// depends on besides the sweep's scale. Workloads are indices into
/// [`catalog::all`]. A coverage or timing cell is observed when its
/// figure collects observation and the sweep has an epoch or a trace
/// capacity set; an observed cell deposits its report and trace, so it
/// is a distinct cell from its unobserved twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Cell {
    /// Coverage engine: (workload, system, degree, observed).
    Coverage(usize, System, usize, bool),
    /// Timing model: (workload, system, degree, observed).
    Timing(usize, System, usize, bool),
    /// Sequitur-oracle replay of the workload's baseline miss sequence.
    Oracle(usize),
    /// Lookup-depth analysis (depths 1..=5) of the same miss sequence.
    Lookup(usize),
}

/// A finished cell's result.
#[derive(Debug)]
enum Outcome {
    Coverage(CoverageReport),
    Timing(TimingReport),
    Oracle(OracleReport),
    Lookup(LookupDepthStats),
}

impl Outcome {
    fn as_coverage(&self) -> &CoverageReport {
        match self {
            Outcome::Coverage(r) => r,
            _ => unreachable!("not a coverage cell"),
        }
    }

    fn as_timing(&self) -> &TimingReport {
        match self {
            Outcome::Timing(r) => r,
            _ => unreachable!("not a timing cell"),
        }
    }

    fn as_oracle(&self) -> &OracleReport {
        match self {
            Outcome::Oracle(r) => r,
            _ => unreachable!("not an oracle cell"),
        }
    }

    fn as_lookup(&self) -> &LookupDepthStats {
        match self {
            Outcome::Lookup(r) => r,
            _ => unreachable!("not a lookup cell"),
        }
    }
}

/// What a finished cell hands back: its outcome, plus an observed
/// cell's labelled telemetry report and flight-recorder trace.
type Ran = (Outcome, Option<RunReport>, Option<TraceCell>);

impl Cell {
    fn workload(self) -> usize {
        match self {
            Cell::Coverage(w, ..) | Cell::Timing(w, ..) | Cell::Oracle(w) | Cell::Lookup(w) => w,
        }
    }

    /// Runs the cell on `spec` in `batch`-event steps. An observed cell
    /// runs under the sweep's epoch and trace capacity; either way it
    /// takes the engine's one loop.
    fn simulate(
        self,
        spec: &WorkloadSpec,
        scale: &Scale,
        batch: u32,
        epoch: Option<u64>,
        trace: Option<u64>,
    ) -> Ran {
        let cfg = SystemConfig::paper();
        let (sys, degree, observed, kind) = match self {
            Cell::Coverage(_, sys, degree, observed) => (sys, degree, observed, "coverage"),
            Cell::Timing(_, sys, degree, observed) => (sys, degree, observed, "timing"),
            Cell::Oracle(_) => return (Outcome::Oracle(oracle_of(&cfg, spec, scale)), None, None),
            Cell::Lookup(_) => {
                let mut analyzer = LookupAnalyzer::new(5);
                for v in miss_sequence(&cfg, spec, scale) {
                    analyzer.push(domino_trace::addr::LineAddr::new(v));
                }
                return (Outcome::Lookup(analyzer.stats().clone()), None, None);
            }
        };
        let mut tel = match epoch.filter(|_| observed) {
            Some(n) => Telemetry::with_epoch(n),
            None => Telemetry::off(),
        };
        if let Some(cap) = trace.filter(|_| observed) {
            tel.enable_trace(usize::try_from(cap).expect("trace capacity fits in usize"));
        }
        let events = shared_trace(spec, scale.events, scale.seed);
        let mut p = sys.build(degree);
        let warmup = scale.warmup();
        let outcome = if kind == "coverage" {
            Outcome::Coverage(run_coverage_observed(
                &cfg,
                &events,
                p.as_mut(),
                warmup,
                batch,
                &mut tel,
            ))
        } else {
            Outcome::Timing(run_timing_observed(
                &cfg,
                &events,
                p.as_mut(),
                warmup,
                batch,
                &mut tel,
            ))
        };
        let meta = TraceMeta {
            workload: spec.name.clone(),
            component: sys.label(),
            kind: kind.to_string(),
            events: scale.events as u64,
            seed: scale.seed,
            warmup: warmup as u64,
        };
        let recorded = tel.take_tracer().map(|recorder| TraceCell {
            meta: meta.clone(),
            recorder,
        });
        // The epoch report exists only when epoch telemetry itself is
        // on, so trace-only runs produce no empty JSON. The engines
        // flush the partial tail themselves, so the finish closure
        // never runs.
        let report = tel.is_on().then(|| {
            let mut report = tel.finish(|_| {});
            report.workload = meta.workload;
            report.component = meta.component;
            report.kind = meta.kind;
            report.events = meta.events;
            report.seed = meta.seed;
            report.warmup = meta.warmup;
            p.emit_counters(&mut |name: &str, value: u64| {
                report.counters.push((name.to_string(), value));
            });
            report
        });
        (outcome, report, recorded)
    }
}

/// The explicit state of a figure run: the scale, worker count, event
/// batch and observation settings every figure reads, the cells
/// finished so far, and the reports and traces the observed ones
/// deposited. Figures run through one sweep share their common cells;
/// a figure that is timed or repeated on its own takes a
/// [`Sweep::fresh`] one. The scale is fixed at construction, since
/// finished cells are kept for it; set `batch`, `epoch` and `trace`
/// before the first figure runs.
#[derive(Debug)]
pub struct Sweep {
    scale: Scale,
    /// Worker threads for each round of cells (see [`exec::sweep`]).
    pub jobs: usize,
    /// Events per coverage step and per timing pollution span (see
    /// [`DEFAULT_BATCH`]); results are byte-identical at every size.
    pub batch: u32,
    /// Telemetry epoch length of observed cells, in L1 misses; `None`
    /// is off.
    pub epoch: Option<u64>,
    /// Flight-recorder ring capacity of observed cells; `None` is off.
    pub trace: Option<u64>,
    done: HashMap<Cell, Outcome>,
    reports: Vec<RunReport>,
    traces: Vec<TraceCell>,
}

/// A positive integer from the environment variable `name`, if set.
fn env_count(name: &str) -> Option<u64> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&n| n > 0)
}

impl Sweep {
    /// A sweep at `scale` and [`DEFAULT_BATCH`] with nothing run yet.
    /// The job count comes from `DOMINO_JOBS`, else the host's available
    /// parallelism; the epoch from `DOMINO_EPOCH` and the trace capacity
    /// from `DOMINO_TRACE` (unset or 0 is off). Callers overwrite the
    /// fields from their own flags.
    pub fn new(scale: Scale) -> Self {
        let host = || std::thread::available_parallelism().map_or(1, |n| n.get());
        Sweep {
            scale,
            jobs: env_count("DOMINO_JOBS")
                .and_then(|n| usize::try_from(n).ok())
                .unwrap_or_else(host),
            batch: DEFAULT_BATCH,
            epoch: env_count("DOMINO_EPOCH"),
            trace: env_count("DOMINO_TRACE"),
            done: HashMap::new(),
            reports: Vec::new(),
            traces: Vec::new(),
        }
    }

    /// A sweep with this one's settings and nothing run yet.
    pub fn fresh(&self) -> Self {
        let mut sweep = Sweep::new(self.scale);
        (sweep.jobs, sweep.batch) = (self.jobs, self.batch);
        (sweep.epoch, sweep.trace) = (self.epoch, self.trace);
        sweep
    }

    /// Whether observed cells record anything (an epoch or a trace
    /// capacity is set).
    pub fn observing(&self) -> bool {
        self.epoch.is_some() || self.trace.is_some()
    }

    /// Takes the reports deposited so far, sorted by (workload,
    /// component, kind): the order, like the bytes, is independent of
    /// the job count.
    pub fn take_reports(&mut self) -> Vec<RunReport> {
        let mut out = std::mem::take(&mut self.reports);
        out.sort_by(|a, b| {
            (&a.workload, &a.component, &a.kind).cmp(&(&b.workload, &b.component, &b.kind))
        });
        out
    }

    /// Takes the flight-recorder traces deposited so far, sorted like
    /// [`Sweep::take_reports`].
    pub fn take_traces(&mut self) -> Vec<TraceCell> {
        let mut out = std::mem::take(&mut self.traces);
        out.sort_by(|a, b| {
            let (a, b) = (&a.meta, &b.meta);
            (&a.workload, &a.component, &a.kind).cmp(&(&b.workload, &b.component, &b.kind))
        });
        out
    }

    /// Runs the cells `row(w)` names for every catalog workload `w` —
    /// the ones not finished yet, each distinct one once, across `jobs`
    /// workers — and returns each workload's name with its row's
    /// outcomes, in catalog order.
    fn rows(&mut self, row: impl Fn(usize) -> Vec<Cell>) -> Vec<(String, Vec<&Outcome>)> {
        let specs = catalog::all();
        let rows: Vec<Vec<Cell>> = (0..specs.len()).map(row).collect();
        let mut todo: Vec<Cell> = Vec::new();
        for &cell in rows.iter().flatten() {
            if !self.done.contains_key(&cell) && !todo.contains(&cell) {
                todo.push(cell);
            }
        }
        let (scale, batch, epoch, trace) = (self.scale, self.batch, self.epoch, self.trace);
        let tasks = todo.iter().map(|&cell| {
            let spec = specs[cell.workload()].clone();
            move || cell.simulate(&spec, &scale, batch, epoch, trace)
        });
        for (cell, (outcome, report, recorded)) in todo.iter().zip(exec::sweep(self.jobs, tasks)) {
            self.reports.extend(report);
            self.traces.extend(recorded);
            self.done.insert(*cell, outcome);
        }
        specs
            .into_iter()
            .zip(rows)
            .map(|(spec, row)| (spec.name, row.iter().map(|c| &self.done[c]).collect()))
            .collect()
    }
}

/// The L1-filtered baseline miss sequence of `spec`'s trace.
fn miss_sequence(system: &SystemConfig, spec: &WorkloadSpec, scale: &Scale) -> Vec<u64> {
    baseline_miss_sequence(system, &shared_trace(spec, scale.events, scale.seed))
}

fn oracle_of(system: &SystemConfig, spec: &WorkloadSpec, scale: &Scale) -> OracleReport {
    let seq = miss_sequence(system, spec, scale);
    // The warmup is defined in accesses; misses are the large majority of
    // accesses in these models, so scale the prefix by the miss ratio.
    let scaled = scale.warmup() as u128 * seq.len() as u128 / scale.events.max(1) as u128;
    let warmup = usize::try_from(scaled).expect("a prefix of the sequence");
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
pub fn fig01(sweep: &mut Sweep) -> FigureTable {
    let mut t = FigureTable::new(
        "Figure 1 — miss coverage vs temporal opportunity (degree 1)",
        "workload",
        vec!["ISB".into(), "STMS".into(), "Opportunity".into()],
    );
    t.percent = true;
    for (name, row) in sweep.rows(|w| {
        vec![
            Cell::Coverage(w, System::Isb, 1, false),
            Cell::Coverage(w, System::Stms, 1, false),
            Cell::Oracle(w),
        ]
    }) {
        t.push_row(
            name,
            vec![
                row[0].as_coverage().coverage(),
                row[1].as_coverage().coverage(),
                row[2].as_oracle().coverage(),
            ],
        );
    }
    t.push_mean_row("Average");
    t
}

/// Figure 2 — average stream length with STMS, Digram, and the Sequitur
/// oracle ("a stream is the sequence of consecutive correct prefetches").
pub fn fig02(sweep: &mut Sweep) -> FigureTable {
    let mut t = FigureTable::new(
        "Figure 2 — average stream length",
        "workload",
        vec!["STMS".into(), "Digram".into(), "Sequitur".into()],
    );
    for (name, row) in sweep.rows(|w| {
        vec![
            Cell::Coverage(w, System::Stms, 1, false),
            Cell::Coverage(w, System::Digram, 1, false),
            Cell::Oracle(w),
        ]
    }) {
        t.push_row(
            name,
            vec![
                row[0].as_coverage().mean_stream_length(),
                row[1].as_coverage().mean_stream_length(),
                row[2].as_oracle().mean_stream_length(),
            ],
        );
    }
    t.push_mean_row("Average");
    t
}

/// Shared body of Figures 3 and 4: one lookup-depth analysis per
/// workload, run once per sweep for both figures.
fn lookup_depth_table(
    sweep: &mut Sweep,
    title: &str,
    extract: fn(&LookupDepthStats) -> Vec<f64>,
) -> FigureTable {
    let cols: Vec<String> = (1..=5).map(|k| format!("{k}-addr")).collect();
    let mut t = FigureTable::new(title, "workload", cols);
    t.percent = true;
    for (name, row) in sweep.rows(|w| vec![Cell::Lookup(w)]) {
        t.push_row(name, extract(row[0].as_lookup()));
    }
    t.push_mean_row("Average");
    t
}

/// Figure 3 — fraction of matching lookups that predict correctly, as a
/// function of lookup depth (1..=5).
pub fn fig03(sweep: &mut Sweep) -> FigureTable {
    lookup_depth_table(
        sweep,
        "Figure 3 — P(correct | match) by lookup depth",
        |stats| stats.correct_given_match(),
    )
}

/// Figure 4 — fraction of lookups that find a match, by lookup depth.
pub fn fig04(sweep: &mut Sweep) -> FigureTable {
    lookup_depth_table(sweep, "Figure 4 — P(match) by lookup depth", |stats| {
        stats.match_fractions()
    })
}

/// Figure 5 — coverage and overpredictions of the recursive multi-depth
/// prefetcher for maximum depths 1..=5 (degree 1, unlimited storage).
pub fn fig05(sweep: &mut Sweep) -> Vec<FigureTable> {
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
    for (name, row) in sweep.rows(|w| {
        (1..=5)
            .map(|n| Cell::Coverage(w, System::MultiDepth(n), 1, false))
            .collect()
    }) {
        let reports = row.iter().map(|o| o.as_coverage());
        cov.push_row(
            name.clone(),
            reports.clone().map(|r| r.coverage()).collect(),
        );
        over.push_row(name, reports.map(|r| r.overprediction_rate()).collect());
    }
    cov.push_mean_row("Average");
    over.push_mean_row("Average");
    vec![cov, over]
}

/// Figure 6 — stream-start timeliness: serial metadata round trips (and
/// the implied nanoseconds) before a stream's first prefetch.
pub fn fig06(sweep: &mut Sweep) -> FigureTable {
    let lat = SystemConfig::paper().memory.latency_ns;
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
    for (name, row) in sweep.rows(|w| {
        vec![
            Cell::Coverage(w, System::Stms, 4, false),
            Cell::Coverage(w, System::Domino, 4, false),
        ]
    }) {
        let stms = row[0].as_coverage().mean_first_prefetch_trips();
        let dom = row[1].as_coverage().mean_first_prefetch_trips();
        t.push_row(name, vec![stms, dom, stms * lat, dom * lat]);
    }
    t.push_mean_row("Average");
    t
}

/// Shared body of Figures 9 and 10: Domino coverage over a sweep of one
/// storage parameter, every (workload × size) cell run in parallel.
/// These configurations appear in no other figure, so the cells go to
/// the executor directly.
fn domino_size_sweep(
    sweep: &Sweep,
    title: &str,
    sizes: &[(usize, &str)],
    cfg_of: fn(usize) -> domino::DominoConfig,
) -> FigureTable {
    use domino::Domino;
    let system = SystemConfig::paper();
    let (scale, batch) = (sweep.scale, sweep.batch);
    let cols: Vec<String> = sizes.iter().map(|&(_, n)| n.to_string()).collect();
    let mut t = FigureTable::new(title, "workload", cols);
    t.percent = true;
    let specs = catalog::all();
    let tasks = specs.iter().flat_map(|spec| {
        sizes.iter().map(move |&(size, _)| {
            let spec = spec.clone();
            move || {
                let trace = shared_trace(&spec, scale.events, scale.seed);
                let mut p = Domino::new(cfg_of(size));
                run_coverage_with_batch(&system, &trace, &mut p, scale.warmup(), batch).coverage()
            }
        })
    });
    let results = exec::sweep(sweep.jobs, tasks);
    for (spec, row) in specs.iter().zip(results.chunks(sizes.len())) {
        t.push_row(spec.name.clone(), row.to_vec());
    }
    t.push_mean_row("Average");
    t
}

/// Figure 9 — Domino coverage versus History Table entries (unbounded
/// EIT), degree 4.
pub fn fig09(sweep: &Sweep) -> FigureTable {
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
        sweep,
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
pub fn fig10(sweep: &Sweep) -> FigureTable {
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
        sweep,
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
/// With `collect` set, each roster cell is observed when the sweep
/// observes (Figure 13 is the collection vehicle: it covers every roster
/// prefetcher at the paper's headline degree without extra runs).
fn roster_comparison(
    sweep: &mut Sweep,
    degree: usize,
    figure: &str,
    collect: bool,
) -> Vec<FigureTable> {
    let observed = collect && sweep.observing();
    let roster = System::paper_roster();
    let mut cols: Vec<String> = roster.iter().map(|s| s.label()).collect();
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
    for (name, row) in sweep.rows(|w| {
        let mut cells: Vec<Cell> = roster
            .iter()
            .map(|&sys| Cell::Coverage(w, sys, degree, observed))
            .collect();
        cells.push(Cell::Oracle(w));
        cells
    }) {
        let (reports, oracle) = row.split_at(roster.len());
        let reports = reports.iter().map(|o| o.as_coverage());
        let opportunity = oracle[0].as_oracle().coverage();
        cov.push_row(
            name.clone(),
            reports
                .clone()
                .map(|r| r.coverage())
                .chain([opportunity])
                .collect(),
        );
        over.push_row(
            name,
            reports
                .map(|r| r.overprediction_rate())
                .chain([f64::NAN])
                .collect(),
        );
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
pub fn fig11(sweep: &mut Sweep) -> Vec<FigureTable> {
    roster_comparison(sweep, 1, "Figure 11", false)
}

/// Figure 12 — cumulative histogram of oracle stream lengths.
pub fn fig12(sweep: &mut Sweep) -> FigureTable {
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
    for (name, row) in sweep.rows(|w| vec![Cell::Oracle(w)]) {
        t.push_row(
            name,
            row[0].as_oracle().stream_lengths.cumulative_fractions(),
        );
    }
    t.push_mean_row("Average");
    t
}

/// Figure 13 — the roster at prefetch degree 4. When the sweep observes
/// (an epoch or a trace capacity is set), its cells collect the coverage
/// telemetry series and flight-recorder traces of every roster
/// prefetcher.
pub fn fig13(sweep: &mut Sweep) -> Vec<FigureTable> {
    roster_comparison(sweep, 4, "Figure 13", true)
}

/// Figure 14 — speedup over the no-prefetcher baseline under the interval
/// timing model, degree 4. Its cells are observed when the sweep is.
pub fn fig14(sweep: &mut Sweep) -> FigureTable {
    let observed = sweep.observing();
    let roster = System::paper_roster();
    let cols: Vec<String> = roster.iter().map(|s| s.label()).collect();
    let mut t = FigureTable::new(
        "Figure 14 — speedup over baseline (degree 4)",
        "workload",
        cols,
    );
    for (name, row) in sweep.rows(|w| {
        let baseline = Cell::Timing(w, System::Baseline, 1, observed);
        let rest = roster.iter().map(|&sys| Cell::Timing(w, sys, 4, observed));
        std::iter::once(baseline).chain(rest).collect()
    }) {
        let baseline = row[0].as_timing();
        t.push_row(
            name,
            row[1..]
                .iter()
                .map(|o| o.as_timing().speedup_over(baseline))
                .collect(),
        );
    }
    t.push_gmean_row("GMean");
    t
}

/// Figure 15 — off-chip traffic overhead of STMS, Digram and Domino over
/// the baseline, split into incorrect prefetches, metadata updates and
/// metadata reads (averaged over workloads, degree 4).
pub fn fig15(sweep: &mut Sweep) -> FigureTable {
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
    let rows = sweep.rows(|w| {
        roster
            .iter()
            .map(|&sys| Cell::Coverage(w, sys, 4, false))
            .collect()
    });
    let n = rows.len() as f64;
    for (i, sys) in roster.iter().enumerate() {
        let (mut incorrect, mut update, mut read) = (0.0, 0.0, 0.0);
        for (_, row) in &rows {
            let r = row[i].as_coverage();
            let demand = r.demand_bytes() as f64;
            incorrect += r.incorrect_prefetch_bytes() as f64 / demand;
            update += r.metadata_write_bytes() as f64 / demand;
            read += r.metadata_read_bytes() as f64 / demand;
        }
        let (incorrect, update, read) = (incorrect / n, update / n, read / n);
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
/// (Web Apache) of the 37.5 GB/s channel. No other figure runs these
/// cells, so they go to the executor directly.
pub fn bandwidth_utilization(sweep: &Sweep) -> FigureTable {
    use crate::multicore::run_homogeneous;
    let system = SystemConfig::paper();
    let seed = sweep.scale.seed;
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
    let events = (sweep.scale.events / 2).max(10_000);
    let specs = catalog::all();
    let tasks = specs.iter().flat_map(|spec| {
        [(System::Baseline, 1), (System::Domino, 4)].map(|(sys, degree)| {
            let spec = spec.clone();
            move || run_homogeneous(&system, &spec, events, seed, sys, degree)
        })
    });
    let results = exec::sweep(sweep.jobs, tasks);
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
pub fn fig16(sweep: &mut Sweep) -> FigureTable {
    let mut t = FigureTable::new(
        "Figure 16 — spatio-temporal coverage (degree 4)",
        "workload",
        vec!["VLDP".into(), "Domino".into(), "VLDP+Domino".into()],
    );
    t.percent = true;
    let roster = [System::Vldp, System::Domino, System::VldpPlusDomino];
    for (name, row) in sweep.rows(|w| {
        roster
            .iter()
            .map(|&sys| Cell::Coverage(w, sys, 4, false))
            .collect()
    }) {
        t.push_row(
            name,
            row.iter().map(|o| o.as_coverage().coverage()).collect(),
        );
    }
    t.push_mean_row("Average");
    t
}

/// Extended roster (beyond the paper's Figure 11): every prefetcher in
/// the library, including the classic designs the paper cites as related
/// work — next-line, PC-stride, GHB \[11\], Markov \[8\], and SMS \[33\] —
/// under identical conditions at degree 4.
pub fn extended_roster(sweep: &mut Sweep) -> Vec<FigureTable> {
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
    for (name, row) in sweep.rows(|w| {
        roster
            .iter()
            .map(|&sys| Cell::Coverage(w, sys, 4, false))
            .collect()
    }) {
        let reports = row.iter().map(|o| o.as_coverage());
        cov.push_row(
            name.clone(),
            reports.clone().map(|r| r.coverage()).collect(),
        );
        over.push_row(name, reports.map(|r| r.overprediction_rate()).collect());
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
/// degree 4. Its cells are observed when the sweep is; the STMS, Digram
/// and Domino ones are Figure 13's and Figure 14's.
///
/// The traffic table is the contrast story: Domino (and STMS/Digram)
/// pay off-chip reads and writes for their reach, while the two on-chip
/// rivals are structurally at zero — their cost shows up as coverage
/// lost to their bounded slabs instead.
pub fn rivals(sweep: &mut Sweep) -> Vec<FigureTable> {
    let observed = sweep.observing();
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
    // Row layout: the degree-1 baseline timing first (as in Figure 14),
    // then each rival's coverage, then each rival's timing.
    for (name, row) in sweep.rows(|w| {
        let baseline = Cell::Timing(w, System::Baseline, 1, observed);
        let coverage = roster
            .iter()
            .map(|&sys| Cell::Coverage(w, sys, 4, observed));
        let timing = roster.iter().map(|&sys| Cell::Timing(w, sys, 4, observed));
        std::iter::once(baseline)
            .chain(coverage)
            .chain(timing)
            .collect()
    }) {
        let baseline = row[0].as_timing();
        let (reports, timings) = row[1..].split_at(roster.len());
        let reports: Vec<&CoverageReport> = reports.iter().map(|o| o.as_coverage()).collect();
        cov.push_row(name.clone(), reports.iter().map(|r| r.coverage()).collect());
        acc.push_row(
            name.clone(),
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
            name.clone(),
            reports
                .iter()
                .map(|r| {
                    (r.metadata_read_bytes() + r.metadata_write_bytes()) as f64
                        / r.demand_bytes().max(1) as f64
                })
                .collect(),
        );
        speed.push_row(
            name,
            timings
                .iter()
                .map(|o| o.as_timing().speedup_over(baseline))
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
/// ordering and be close in magnitude. The oracle here replays without
/// warmup, so no other figure shares these cells.
pub fn opportunity_methods(sweep: &Sweep) -> FigureTable {
    use domino_sequitur::{analysis, Sequitur};
    let system = SystemConfig::paper();
    let scale = sweep.scale;
    let mut t = FigureTable::new(
        "Opportunity measures — Sequitur grammar vs longest-stream oracle",
        "workload",
        vec!["Grammar".into(), "Oracle".into()],
    );
    t.percent = true;
    // The grammar is O(n) but allocation-heavy; cap its input.
    let cap = scale.events.min(150_000);
    let specs = catalog::all();
    let tasks = specs.iter().map(|spec| {
        let spec = spec.clone();
        move || {
            let seq = miss_sequence(&system, &spec, &scale);
            let grammar = Sequitur::from_sequence(seq.iter().copied().take(cap));
            let g = analysis::grammar_coverage(&grammar);
            let o = oracle_replay(&seq, &OracleConfig::default()).coverage();
            vec![g, o]
        }
    });
    let results = exec::sweep(sweep.jobs, tasks);
    for (spec, row) in specs.iter().zip(results) {
        t.push_row(spec.name.clone(), row);
    }
    t.push_mean_row("Average");
    t
}

/// MLP sensitivity (the paper's §V-C explanation for Web Search and
/// Media Streaming): speedup of Domino as a function of the fraction of
/// dependent (serializing) misses, on the OLTP model. The mutated
/// workloads appear in no other figure, so the cells go to the executor
/// directly.
pub fn mlp_sensitivity(sweep: &Sweep) -> FigureTable {
    let system = SystemConfig::paper();
    let (scale, batch) = (sweep.scale, sweep.batch);
    let fracs = [0.1, 0.3, 0.5, 0.7, 0.9];
    let cols: Vec<String> = fracs.iter().map(|f| format!("dep={f:.1}")).collect();
    let mut t = FigureTable::new(
        "MLP sensitivity — Domino speedup vs dependent-miss fraction (OLTP model)",
        "system",
        cols,
    );
    let tasks = fracs.iter().flat_map(|&f| {
        [
            (System::Baseline, 1),
            (System::Stms, 4),
            (System::Domino, 4),
        ]
        .map(|(sys, degree)| {
            move || {
                let mut spec = catalog::oltp();
                spec.temporal.dependent_frac = f;
                let trace = shared_trace(&spec, scale.events, scale.seed);
                let mut p = sys.build(degree);
                run_timing_with_batch(&system, &trace, p.as_mut(), scale.warmup(), batch)
            }
        })
    });
    let results = exec::sweep(sweep.jobs, tasks);
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
/// speedups measured over several workload seeds at `sweep`'s event
/// count, reported as mean and 95 % confidence half-width. Each seed
/// runs on its own fresh sweep.
pub fn fig14_confidence(sweep: &Sweep, seeds: &[u64]) -> FigureTable {
    use crate::stats::Sample;
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
    // Per seed, per workload: (STMS, Domino) speedup over the seed's
    // baseline run.
    let per_seed: Vec<Vec<(f64, f64)>> = seeds
        .iter()
        .map(|&seed| {
            let mut seeded = sweep.fresh();
            seeded.scale.seed = seed;
            let speedups = seeded
                .rows(|w| {
                    [
                        (System::Baseline, 1),
                        (System::Stms, 4),
                        (System::Domino, 4),
                    ]
                    .map(|(sys, degree)| Cell::Timing(w, sys, degree, false))
                    .to_vec()
                })
                .into_iter()
                .map(|(_, row)| {
                    let baseline = row[0].as_timing();
                    (
                        row[1].as_timing().speedup_over(baseline),
                        row[2].as_timing().speedup_over(baseline),
                    )
                })
                .collect();
            speedups
        })
        .collect();
    for (w, spec) in catalog::all().into_iter().enumerate() {
        let stms = Sample::of(&per_seed.iter().map(|s| s[w].0).collect::<Vec<_>>());
        let domino = Sample::of(&per_seed.iter().map(|s| s[w].1).collect::<Vec<_>>());
        t.push_row(
            spec.name,
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

    fn tiny() -> Sweep {
        Sweep::new(Scale {
            events: 12_000,
            seed: 7,
        })
    }

    #[test]
    fn fig01_has_nine_workloads_plus_average() {
        let t = fig01(&mut tiny());
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
        let t = fig12(&mut tiny());
        for row in &t.values {
            for w in row.windows(2) {
                assert!(w[1] + 1e-9 >= w[0], "not cumulative: {row:?}");
            }
            assert!((row.last().unwrap() - 1.0).abs() < 1e-9 || *row.last().unwrap() == 0.0);
        }
    }

    #[test]
    fn fig06_domino_needs_fewer_trips_than_stms() {
        let t = fig06(&mut tiny());
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
            &Sweep::new(Scale {
                events: 6_000,
                seed: 0,
            }),
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
        let mut sweep = Sweep::new(Scale {
            events: 8_000,
            seed: 3,
        });
        let roster = extended_roster(&mut sweep);
        assert_eq!(roster.len(), 2);
        assert_eq!(roster[0].columns.len(), 11);
        assert_eq!(roster[0].rows.len(), 10);
        let opp = opportunity_methods(&sweep);
        assert_eq!(opp.columns.len(), 2);
        let mlp = mlp_sensitivity(&Sweep::new(Scale {
            events: 6_000,
            seed: 3,
        }));
        assert_eq!(mlp.rows.len(), 2);
        assert_eq!(mlp.columns.len(), 5);
    }

    #[test]
    fn tables_render() {
        assert!(table1().contains("45 ns"));
        assert!(table2().contains("OLTP"));
    }
}
