//! Benchmark runner: sets a workload up, measures it for a fixed number
//! of host seconds, checks its results, and prints one JSON line.
//!
//! ```text
//! domino-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--work-dir <dir>] [--setup-only]
//! ```
//!
//! `benchmark/run.py` builds this binary, runs it, and checks the digest
//! against the values recorded for known seeds. `--setup-only` sets the
//! workload up once and prints the set-up time; the runner itself uses
//! it to sample set-up time in fresh processes, since the trace cache
//! would make a second set-up in one process cheaper than the first.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use domino_benchmark::service::ServiceTenants;
use domino_benchmark::stream::StreamCoverage;
use domino_benchmark::timing::TimingSweep;
use domino_benchmark::{median, peak_rss_mb, Kind, Pass, SetupTimes, Workload, PER_LAYER};

/// Fresh processes that sample set-up time, besides the measured one:
/// at least the minimum, then more while they stay within the budget.
const SETUP_SAMPLES: (usize, usize) = (4, 16);
const SETUP_SAMPLE_BUDGET_S: f64 = 2.0;
/// Fewest passes a measured phase runs, however long they take.
const MIN_PASSES: usize = 3;
/// Share of the measured window a traced run spends on untraced passes
/// (the tracing-overhead baseline); the rest is traced.
const TRACED_RUN_UNTRACED_SHARE: f64 = 0.4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".bench_work"),
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => args.trace = value == "1",
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    // Read before any workload pins its threads to single cores.
    let cores = host_cores();
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "timing-sweep" => run::<TimingSweep>(&args, cores),
        "stream-coverage" => run::<StreamCoverage>(&args, cores),
        "service-tenants" => run::<ServiceTenants>(&args, cores),
        other => Err(format!("unknown workload {other:?}")),
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("domino-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

/// Set-up time sampled in a fresh copy of this process.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--work-dir")
        .arg(&args.work_dir)
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("set-up sample: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up sample failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    text.trim()
        .strip_prefix("setup_s=")
        .and_then(|v| v.parse().ok())
        .ok_or(format!("set-up sample printed {text:?}"))
}

fn setup<W: Workload>(args: &Args) -> Result<(W, SetupTimes, f64), String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("work dir {}: {e}", args.work_dir.display()))?;
    let t0 = Instant::now();
    let (w, times) = W::setup(args.seed, Path::new(&args.work_dir))?;
    Ok((w, times, t0.elapsed().as_secs_f64()))
}

/// Runs passes until `budget` seconds have gone and at least
/// [`MIN_PASSES`] have run.
fn measure<W: Workload>(w: &mut W, traced: bool, budget: f64) -> Result<Vec<Pass>, String> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < budget {
        passes.push(w.pass(traced)?);
    }
    Ok(passes)
}

fn run<W: Workload>(args: &Args, host_cores: usize) -> Result<String, String> {
    if args.setup_only {
        let (w, _, secs) = setup::<W>(args)?;
        drop(w);
        return Ok(format!("setup_s={secs}"));
    }
    let mut setup_samples = Vec::new();
    let t0 = Instant::now();
    while setup_samples.len() < SETUP_SAMPLES.0
        || (setup_samples.len() < SETUP_SAMPLES.1
            && t0.elapsed().as_secs_f64() < SETUP_SAMPLE_BUDGET_S)
    {
        setup_samples.push(setup_in_child(args)?);
    }
    let (mut w, times, secs) = setup::<W>(args)?;
    setup_samples.push(secs);
    let untraced_budget = if args.trace {
        args.seconds * TRACED_RUN_UNTRACED_SHARE
    } else {
        args.seconds
    };
    let untraced = measure(&mut w, false, untraced_budget)?;
    let traced = if args.trace {
        measure(&mut w, true, args.seconds - untraced_budget)?
    } else {
        Vec::new()
    };
    let rss_mb = peak_rss_mb();

    // Every pass must reproduce the first one's results exactly, traced
    // or not; then the workload re-derives them independently.
    let reference = untraced[0].digest;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for pass in untraced.iter().chain(&traced) {
        attempted += 1;
        failed += u64::from(pass.digest != reference);
    }
    let verified = w.verify()?;
    attempted += verified.attempted;
    failed += verified.failed;

    let fastest = |passes: &[Pass]| {
        passes
            .iter()
            .map(|p| p.compare_s)
            .fold(f64::INFINITY, f64::min)
    };
    let mut metrics: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            metrics.insert(name, (0.0, unit));
        }
        layer_means(&traced, &mut metrics, times);
        metrics.insert(
            "tracing.overhead_x",
            (fastest(&traced) / fastest(&untraced), "x"),
        );
    } else {
        // Neighbours' load on a shared machine only ever slows a pass
        // down, in bursts that can cover most of a run: the fastest pass
        // is the steadiest estimate of the simulator's own speed. Every
        // pass replays the same events.
        let events = untraced[0].events as f64;
        metrics.insert("events_per_s", (events / fastest(&untraced), "1/s"));
        metrics.insert("setup_s", (median(&setup_samples), "s"));
        metrics.insert("peak_rss_mb", (rss_mb.unwrap_or(0.0), "MB"));
        if rss_mb.is_none() {
            failed += 1;
            attempted += 1;
        }
    }

    let mut ctx: Vec<(&str, String)> = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("host_cores", host_cores.to_string()),
        ("threads_used", w.threads().to_string()),
        ("placement", json_str(&w.placement())),
        ("batch", domino_sim::observe::batch_size().to_string()),
        ("events_per_pass", w.events_per_pass().to_string()),
        ("untraced_passes", untraced.len().to_string()),
        ("traced_passes", traced.len().to_string()),
        ("seconds", args.seconds.to_string()),
        ("tracing", json_str(if args.trace { "on" } else { "off" })),
        ("setup_samples_s", json_list(&setup_samples)),
        (
            "untraced_pass_wall_s",
            json_list(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
        ),
        (
            "median_pass_events_per_s",
            num(untraced[0].events as f64
                / median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>())),
        ),
        ("verified", verified.attempted.to_string()),
    ];
    if args.trace {
        let overhead = metrics["tracing.overhead_x"].0;
        ctx.push(("tracing_overhead_x", num(overhead)));
    }
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"digest\": \"{}\", \"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        reference.hex(),
        failed == 0
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    out.push_str("}, \"context\": {");
    for (i, (k, v)) in ctx.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{k}\": {v}");
    }
    out.push_str("}}");
    Ok(out)
}

/// Per-layer values over the traced passes: host times as means, exact
/// counts from the last pass, plus the set-up split and the wall-time
/// remainder no layer claimed.
fn layer_means(traced: &[Pass], metrics: &mut BTreeMap<&str, (f64, &str)>, times: SetupTimes) {
    let n = traced.len() as f64;
    let mut sums: BTreeMap<&'static str, (f64, &'static str, Kind)> = BTreeMap::new();
    for pass in traced {
        for layer in &pass.layers {
            let entry = sums
                .entry(layer.name)
                .or_insert((0.0, layer.unit, layer.kind));
            match layer.kind {
                Kind::Mean => entry.0 += layer.value / n,
                Kind::Exact => entry.0 = layer.value,
            }
        }
    }
    for (name, (value, unit, _)) in sums {
        metrics.insert(name, (value, unit));
    }
    let wall: f64 = traced.iter().map(|p| p.wall_s).sum::<f64>() / n;
    let attributed: f64 = traced.iter().map(|p| p.attributed_s).sum::<f64>() / n;
    metrics.insert("traced.wall_s", (wall, "s"));
    metrics.insert("traced.unattributed_s", (wall - attributed, "s"));
    metrics.insert("trace.generate_s", (times.generate_s, "s"));
    metrics.insert("trace.encode_s", (times.encode_s, "s"));
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A JSON number with every digit the value has; non-finite values,
/// which JSON cannot carry, read as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(", "))
}
