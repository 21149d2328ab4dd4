//! Flight-recorder CLI: replays binary prefetch traces (`trace_*.bin`,
//! written by figure sweeps run with `--trace`/`DOMINO_TRACE`) into a
//! causal loss-attribution table.
//!
//! ```text
//! explain <path> [--csv]
//! explain --smoke <dir>
//! ```
//!
//! `<path>` is a single trace file or a directory of `trace_*.bin`
//! files. For every trace the CLI verifies the file (format, event
//! validity, and the conservation invariant: the six loss buckets sum
//! exactly to the demand-miss count), then prints where the coverage
//! went — `covered` demand hits versus misses attributed to `late`
//! arrival, `evicted-unused` buffer pressure, `dropped` inserts,
//! `mispredicted` metadata, or `no-metadata` cold lines. `--csv` emits
//! one machine-readable row per trace instead.
//!
//! `--smoke` runs a tiny traced Figure 13 sweep, writes the trace files
//! into `<dir>`, and re-verifies each from its on-disk bytes — CI uses
//! this to validate the binary format end-to-end without a full
//! figures run.
//!
//! The exit code is nonzero if any trace fails to parse or verify, so
//! the conservation invariant is machine-checkable in CI.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use domino_sim::figures::{fig13, Scale, Sweep};
use domino_sim::observe;
use domino_telemetry::trace::BUCKET_NAMES;
use domino_telemetry::{TraceFile, DEFAULT_TRACE_CAPACITY};

fn usage() -> ExitCode {
    eprintln!("usage: explain <file-or-dir> [--csv]");
    eprintln!("       explain --smoke <dir>");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<PathBuf> = None;
    let mut csv = false;
    let mut smoke: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--csv" => csv = true,
            "--smoke" => match it.next() {
                Some(dir) => smoke = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(PathBuf::from(other));
            }
            _ => return usage(),
        }
    }
    if let Some(dir) = smoke {
        return run_smoke(&dir);
    }
    let Some(path) = path else { return usage() };
    let traces = match load_traces(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if traces.is_empty() {
        eprintln!("error: no trace files under {}", path.display());
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    if csv {
        println!("{}", csv_header());
    }
    for (file, trace) in &traces {
        if let Err(e) = trace.verify() {
            eprintln!("error: {}: {e}", file.display());
            ok = false;
            continue;
        }
        if csv {
            println!("{}", csv_row(trace));
        } else {
            print!("{}", render(file, trace));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs a tiny traced Figure 13 sweep, writes the binary traces into
/// `dir`, and verifies each file from its on-disk bytes (binary-format
/// smoke test for CI).
fn run_smoke(dir: &Path) -> ExitCode {
    let mut sweep = Sweep::new(Scale {
        events: 20_000,
        seed: 42,
    });
    sweep.trace = Some(DEFAULT_TRACE_CAPACITY as u64);
    fig13(&mut sweep);
    let traces = sweep.take_traces();
    let paths = match observe::write_traces(dir, &traces) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for path in &paths {
        let trace = match load_trace(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = trace.verify() {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if trace.attribution.demand_misses == 0 {
            eprintln!(
                "error: {}: smoke trace saw no demand misses",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    }
    println!(
        "wrote and verified {} trace files in {}",
        paths.len(),
        dir.display()
    );
    ExitCode::SUCCESS
}

/// Loads one binary trace file.
fn load_trace(path: &Path) -> Result<TraceFile, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    TraceFile::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads every trace reachable from `path` (one file, or a directory of
/// `trace_*.bin` files).
fn load_traces(path: &Path) -> Result<Vec<(PathBuf, TraceFile)>, String> {
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.starts_with("trace_") && name.ends_with(".bin")
            })
            .collect();
        files.sort();
        return files
            .into_iter()
            .map(|f| load_trace(&f).map(|t| (f, t)))
            .collect();
    }
    Ok(vec![(path.to_path_buf(), load_trace(path)?)])
}

/// The CSV header matching [`csv_row`].
fn csv_header() -> String {
    let mut cols = vec![
        "workload".to_string(),
        "component".to_string(),
        "kind".to_string(),
        "demand_misses".to_string(),
    ];
    cols.extend(BUCKET_NAMES.iter().map(|n| n.to_string()));
    cols.push("coverage".to_string());
    cols.join(",")
}

/// One CSV row: the cell identity, the miss count, the six loss
/// buckets, and the trace-side coverage ratio.
fn csv_row(t: &TraceFile) -> String {
    let a = &t.attribution;
    let mut cells = vec![
        t.meta.workload.clone(),
        t.meta.component.clone(),
        t.meta.kind.clone(),
        a.demand_misses.to_string(),
    ];
    cells.extend(a.buckets().iter().map(u64::to_string));
    cells.push(format!("{:.6}", a.coverage()));
    cells.join(",")
}

/// Renders one trace as a human-readable attribution table.
fn render(file: &Path, t: &TraceFile) -> String {
    let a = &t.attribution;
    let mut out = format!(
        "{} / {} [{}] — {} (events {}, seed {}, warmup {})\n",
        t.meta.workload,
        t.meta.component,
        t.meta.kind,
        file.display(),
        t.meta.events,
        t.meta.seed,
        t.meta.warmup
    );
    out.push_str(&format!(
        "  ring {} events, {} recorded{}\n",
        t.capacity,
        t.recorded,
        if t.wrapped() { " (wrapped)" } else { "" }
    ));
    out.push_str(&format!("  demand misses   {:>10}\n", a.demand_misses));
    let pct = |n: u64| {
        if a.demand_misses == 0 {
            0.0
        } else {
            n as f64 * 100.0 / a.demand_misses as f64
        }
    };
    for (name, n) in BUCKET_NAMES.iter().zip(a.buckets()) {
        out.push_str(&format!("  {name:<15} {n:>10}  {:>5.1}%\n", pct(n)));
    }
    out.push_str(&format!(
        "  conservation: buckets sum to {} of {} misses — {}\n\n",
        a.bucket_sum(),
        a.demand_misses,
        if a.is_conserved() { "OK" } else { "VIOLATED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_telemetry::{FlightRecorder, TraceMeta};

    fn sample() -> TraceFile {
        let mut rec = FlightRecorder::new(64);
        rec.issue(0, 100, Some(1), 1);
        rec.fill(1, 100, Some(1), 1);
        rec.demand_hit(2, 100, Some(1), 1);
        rec.demand_miss(3, 200, true);
        rec.demand_miss(4, 300, false);
        let meta = TraceMeta {
            workload: "synthetic".into(),
            component: "Domino".into(),
            kind: "coverage".into(),
            events: 10,
            seed: 42,
            warmup: 0,
        };
        TraceFile::from_bytes(&rec.to_bytes(&meta)).expect("roundtrip")
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let t = sample();
        let header = csv_header();
        let row = csv_row(&t);
        assert_eq!(
            header.split(',').count(),
            row.split(',').count(),
            "{header}\n{row}"
        );
        assert!(header.starts_with("workload,component,kind,demand_misses,covered"));
        assert!(row.starts_with("synthetic,Domino,coverage,3,1,"));
        assert!(!row.contains("NaN") && !row.contains("inf"));
    }

    #[test]
    fn render_reports_conservation() {
        let t = sample();
        let text = render(Path::new("trace_x.bin"), &t);
        assert!(text.contains("demand misses"), "{text}");
        assert!(
            text.contains("conservation: buckets sum to 3 of 3 misses — OK"),
            "{text}"
        );
        assert!(text.contains("mispredicted"));
        assert!(text.contains("no_metadata"));
    }
}
