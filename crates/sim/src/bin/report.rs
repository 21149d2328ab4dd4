//! Telemetry report CLI: renders per-epoch tables (or CSV) from the JSON
//! run reports emitted by figure sweeps, and flags anomalous epochs.
//!
//! ```text
//! report <path> [--csv] [--factor F]
//! report --smoke <dir>
//! ```
//!
//! `<path>` is a single `telemetry_*.json` cell file, a
//! `TELEMETRY_sweep.json` aggregate, or a directory containing either.
//! For every report the CLI prints one table of per-epoch *deltas* (the
//! JSON stores cumulative rows) with derived accuracy/coverage columns,
//! then flags epochs whose prefetch accuracy drops more than `F`×
//! (default 2) below the run mean — the signature of a prefetcher
//! thrashing its tables mid-run.
//!
//! `--smoke` runs a tiny observed Figure 13 sweep and writes its
//! telemetry files into `<dir>` — CI uses this to validate the schema
//! end-to-end without a full figures run.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use domino_sim::figures::{fig13, Scale, Sweep};
use domino_sim::observe;
use domino_sim::report::FigureTable;
use domino_telemetry::{json, RunReport};

fn usage() -> ExitCode {
    eprintln!("usage: report <file-or-dir> [--csv] [--factor F]");
    eprintln!("       report --smoke <dir>");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<PathBuf> = None;
    let mut csv = false;
    let mut factor = 2.0f64;
    let mut smoke: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--csv" => csv = true,
            "--factor" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f > 1.0 => factor = f,
                _ => {
                    eprintln!("--factor needs a number > 1");
                    return ExitCode::FAILURE;
                }
            },
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
    let reports = match load_reports(&path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if reports.is_empty() {
        eprintln!("error: no telemetry reports under {}", path.display());
        return ExitCode::FAILURE;
    }
    for r in &reports {
        render(r, csv, factor);
    }
    ExitCode::SUCCESS
}

/// Runs a tiny observed Figure 13 sweep and writes its telemetry into
/// `dir` (schema smoke test for CI).
fn run_smoke(dir: &Path) -> ExitCode {
    let mut sweep = Sweep::new(Scale {
        events: 20_000,
        seed: 42,
    });
    sweep.epoch = Some(5_000);
    fig13(&mut sweep);
    let reports = sweep.take_reports();
    match observe::write_reports(dir, &reports) {
        Ok(paths) => {
            println!("wrote {} telemetry files to {}", paths.len(), dir.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Loads every report reachable from `path` (cell file, aggregate file,
/// or directory of either).
fn load_reports(path: &Path) -> Result<Vec<RunReport>, String> {
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.starts_with("telemetry_") && name.ends_with(".json")
            })
            .collect();
        files.sort();
        if files.is_empty() {
            // Fall back to the aggregate if no per-cell files are there.
            let agg = path.join("TELEMETRY_sweep.json");
            if agg.is_file() {
                return load_reports(&agg);
            }
        }
        let mut out = Vec::new();
        for f in files {
            out.extend(load_reports(&f)?);
        }
        return Ok(out);
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let is_aggregate = path
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n == "TELEMETRY_sweep.json");
    if is_aggregate {
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let schema = v.get("schema").and_then(json::Json::as_str);
        if schema != Some(observe::SWEEP_SCHEMA) {
            return Err(format!(
                "{}: unsupported sweep schema {schema:?}",
                path.display()
            ));
        }
        v.get("reports")
            .and_then(json::Json::as_arr)
            .ok_or_else(|| format!("{}: missing reports array", path.display()))?
            .iter()
            .map(|r| RunReport::from_value(r).map_err(|e| format!("{}: {e}", path.display())))
            .collect()
    } else {
        Ok(vec![
            RunReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?
        ])
    }
}

/// Accuracy numerator/denominator fields: prefetch-buffer hits over
/// inserts, present in both coverage and timing reports.
const ACC_NUM: &str = "buffer.hits";
const ACC_DEN: &str = "buffer.inserted";

/// A derived per-epoch rate as a finite table cell: epochs with a zero
/// denominator (an epoch that issued no prefetches, or a baseline with
/// no misses) render as 0 rather than NaN/inf, keeping the CSV export
/// machine-parseable.
fn finite_rate(rates: Option<&Vec<Option<f64>>>, index: usize) -> f64 {
    rates
        .and_then(|v| v.get(index).copied().flatten())
        .filter(|v| v.is_finite())
        .unwrap_or(0.0)
}

/// Builds the per-epoch delta table (with derived accuracy/coverage
/// columns) for one report.
fn delta_table(r: &RunReport) -> FigureTable {
    let mut columns = r.fields.clone();
    let acc = r.field(ACC_NUM).is_some() && r.field(ACC_DEN).is_some();
    let cov = r.field("covered").is_some() && r.field("baseline_misses").is_some();
    if acc {
        columns.push("accuracy".into());
    }
    if cov {
        columns.push("coverage".into());
    }
    let mut t = FigureTable::new(
        format!(
            "{} / {} [{}] — per-epoch deltas (epoch {} accesses, events {}, warmup {})",
            r.workload, r.component, r.kind, r.epoch_accesses, r.events, r.warmup
        ),
        "epoch",
        columns,
    );
    let acc_rates = r.epoch_rate(ACC_NUM, ACC_DEN);
    let cov_rates = r.epoch_rate("covered", "baseline_misses");
    for d in r.deltas() {
        let mut row: Vec<f64> = d.values.iter().map(|&v| v as f64).collect();
        if acc {
            row.push(finite_rate(acc_rates.as_ref(), d.index));
        }
        if cov {
            row.push(finite_rate(cov_rates.as_ref(), d.index));
        }
        t.push_row(format!("{}", d.index), row);
    }
    t
}

/// One percentile as a table cell: `-` for an empty histogram, and
/// `>bound` when the rank lands in the overflow bucket (the shared
/// percentile helper reports that as `u64::MAX`).
fn pct_label(h: &domino_telemetry::FixedHistogram, p: f64) -> String {
    match h.percentile(p) {
        None => "-".into(),
        Some(u64::MAX) => format!(">{}", h.bounds().last().copied().unwrap_or(0)),
        Some(bound) => bound.to_string(),
    }
}

/// Prints one report as a per-epoch delta table plus anomaly flags.
fn render(r: &RunReport, csv: bool, factor: f64) {
    let t = delta_table(r);
    if csv {
        print!("{}", t.to_csv());
    } else {
        println!("{t}");
        for (name, h) in &r.histograms {
            let buckets: Vec<String> = h
                .counts()
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| format!("{} x{}", h.label(i), c))
                .collect();
            println!(
                "  hist {name}: n={} mean={:.1} p50={} p95={} p99={} [{}]",
                h.total(),
                h.mean(),
                pct_label(h, 0.50),
                pct_label(h, 0.95),
                pct_label(h, 0.99),
                buckets.join(", ")
            );
        }
    }
    if r.field(ACC_NUM).is_some() && r.field(ACC_DEN).is_some() {
        let flagged = r.anomalous_epochs(ACC_NUM, ACC_DEN, factor);
        if !flagged.is_empty() {
            println!(
                "  !! anomaly: epochs {flagged:?} have accuracy more than {factor:.1}x below the run mean"
            );
        }
    }
    if !csv {
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose second epoch issued no prefetches and whose
    /// baseline saw no misses — both derived-rate denominators are zero.
    fn zero_denominator_report() -> RunReport {
        RunReport {
            schema: domino_telemetry::SCHEMA.to_string(),
            workload: "synthetic".into(),
            component: "Domino".into(),
            kind: "coverage".into(),
            events: 20,
            seed: 1,
            warmup: 0,
            epoch_accesses: 10,
            fields: vec![
                "buffer.hits".into(),
                "buffer.inserted".into(),
                "covered".into(),
                "baseline_misses".into(),
            ],
            // Cumulative rows: epoch 1 adds nothing, so its deltas are
            // all zero.
            epochs: vec![vec![3, 4, 3, 8], vec![3, 4, 3, 8]],
            histograms: Vec::new(),
            counters: Vec::new(),
        }
    }

    #[test]
    fn zero_issued_epochs_render_finite_csv() {
        let t = delta_table(&zero_denominator_report());
        let csv = t.to_csv();
        assert!(
            !csv.contains("NaN") && !csv.contains("inf"),
            "derived columns must stay finite:\n{csv}"
        );
        // Epoch 0 still gets the real rates...
        assert_eq!(t.value("0", "accuracy"), Some(0.75));
        assert_eq!(t.value("0", "coverage"), Some(0.375));
        // ...and the zero-denominator epoch reads 0, not NaN.
        assert_eq!(t.value("1", "accuracy"), Some(0.0));
        assert_eq!(t.value("1", "coverage"), Some(0.0));
    }

    #[test]
    fn percentile_labels_on_known_buckets() {
        use domino_telemetry::FixedHistogram;
        // Bounds 10/100/1000; 20 values in the first bucket, 70 in the
        // second, 9 in the third, 1 overflow — the shared helper's
        // canonical shape: p50 lands in bucket 100, p99 at 1000.
        let h = FixedHistogram::from_parts(vec![10, 100, 1000], vec![20, 70, 9, 1], 0);
        assert_eq!(pct_label(&h, 0.50), "100");
        assert_eq!(pct_label(&h, 0.95), "1000");
        assert_eq!(pct_label(&h, 0.99), "1000");
        // The full-population percentile hits the overflow record.
        assert_eq!(pct_label(&h, 1.0), ">1000");
        // Empty histogram: no percentile at all.
        let empty = FixedHistogram::new(&[10, 100]);
        assert_eq!(pct_label(&empty, 0.5), "-");
    }

    #[test]
    fn finite_rate_guards_every_degenerate_shape() {
        assert_eq!(finite_rate(None, 0), 0.0);
        let rates = vec![Some(0.5), None, Some(f64::INFINITY)];
        assert_eq!(finite_rate(Some(&rates), 0), 0.5);
        assert_eq!(finite_rate(Some(&rates), 1), 0.0, "zero denominator");
        assert_eq!(finite_rate(Some(&rates), 2), 0.0, "non-finite rate");
        assert_eq!(finite_rate(Some(&rates), 9), 0.0, "out of range");
    }
}
