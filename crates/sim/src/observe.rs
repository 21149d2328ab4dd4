//! Telemetry export for figure sweeps, and the default event batch.
//!
//! Figure cells run on a [`crate::figures::Sweep`]; a cell that runs
//! observed labels its [`RunReport`] and flight-recorder trace and the
//! sweep keeps them. After the run, the harness takes them — sorted by
//! (workload, component, kind), so the output is byte-identical at any
//! job count — and [`write_reports`] exports one JSON file per cell plus
//! an aggregate `TELEMETRY_sweep.json`; [`write_traces`] writes one
//! binary trace file per cell.
//!
//! Observation is opt-in twice over: a sweep collects nothing unless it
//! has an epoch length or a trace capacity (from `--epoch`/`--trace`, or
//! the `DOMINO_EPOCH`/`DOMINO_TRACE` environment variables), and only
//! the runners that opt into collection (Figure 13's coverage roster,
//! Figure 14's timing roster and the rivals tables) observe their cells.
//! Everything else runs the same loop with a disabled handle: a few dead
//! branches per L1 miss.

use std::io;
use std::path::{Path, PathBuf};

use domino_telemetry::trace::TraceMeta;
use domino_telemetry::{FlightRecorder, RunReport};

/// Schema tag of the aggregate sweep file.
pub const SWEEP_SCHEMA: &str = "domino-telemetry-sweep/1";

/// Default event-batch size. The batch sets only two things: the
/// coverage engine's step (events walked per
/// `Prefetcher::train_predict_batch` call) and the timing engine's
/// pollution span (events whose cross-core LLC fills are precomputed
/// and host-prefetched together). Results are byte-identical at every
/// size; 64 amortizes the per-step call and keeps a span's pollution
/// lines in the host L1.
pub const DEFAULT_BATCH: u32 = 64;

/// One cell's recorded trace: the recorder plus its run labels.
#[derive(Debug, Clone)]
pub struct TraceCell {
    /// Run identity (workload / component / kind / scale).
    pub meta: TraceMeta,
    /// The finished recorder.
    pub recorder: FlightRecorder,
}

/// Always [`DEFAULT_BATCH`]: the batch is an argument of the runs that
/// take one (`Sweep::batch`, `run_*_with_batch`, `run_*_observed`).
/// Kept only because the benchmark package prints it as its run
/// setting; it goes when that package takes an explicit run spec.
pub fn batch_size() -> u32 {
    DEFAULT_BATCH
}

/// File-system-safe slug of a label (`Web Search` → `web_search`).
fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// The per-cell file name for a report.
pub fn cell_filename(report: &RunReport) -> String {
    format!(
        "telemetry_{}_{}_{}.json",
        slug(&report.workload),
        slug(&report.component),
        slug(&report.kind)
    )
}

/// Renders the aggregate sweep document embedding every report.
pub fn aggregate_json(reports: &[RunReport]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{SWEEP_SCHEMA}\",\n"));
    out.push_str(&format!("  \"runs\": {},\n", reports.len()));
    out.push_str("  \"reports\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let body = r.to_json();
        out.push_str(body.trim_end());
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes one JSON file per report plus the aggregate
/// `TELEMETRY_sweep.json` into `dir`; returns the written paths
/// (aggregate last).
pub fn write_reports(dir: &Path, reports: &[RunReport]) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(reports.len() + 1);
    for r in reports {
        let path = dir.join(cell_filename(r));
        std::fs::write(&path, r.to_json())?;
        paths.push(path);
    }
    let agg = dir.join("TELEMETRY_sweep.json");
    std::fs::write(&agg, aggregate_json(reports))?;
    paths.push(agg);
    Ok(paths)
}

/// The per-cell file name for a recorded trace. The kind suffix keeps
/// the coverage (fig13) and timing (fig14) cells of the same
/// workload × prefetcher pair from colliding.
pub fn trace_filename(meta: &TraceMeta) -> String {
    format!(
        "trace_{}_{}_{}.bin",
        slug(&meta.workload),
        slug(&meta.component),
        slug(&meta.kind)
    )
}

/// Writes one binary trace file per cell into `dir`; returns the
/// written paths.
pub fn write_traces(dir: &Path, traces: &[TraceCell]) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(traces.len());
    for t in traces {
        let path = dir.join(trace_filename(&t.meta));
        std::fs::write(&path, t.recorder.to_bytes(&t.meta))?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_telemetry::SCHEMA;

    fn labelled(workload: &str, component: &str) -> RunReport {
        RunReport {
            schema: SCHEMA.to_string(),
            workload: workload.into(),
            component: component.into(),
            kind: "coverage".into(),
            events: 10,
            seed: 1,
            warmup: 2,
            epoch_accesses: 5,
            fields: vec!["accesses".into()],
            epochs: vec![vec![5], vec![10]],
            histograms: Vec::new(),
            counters: Vec::new(),
        }
    }

    #[test]
    fn filenames_are_slugged() {
        let r = labelled("Web Search", "Domino+NL");
        assert_eq!(
            cell_filename(&r),
            "telemetry_web_search_domino_nl_coverage.json"
        );
        let meta = TraceMeta {
            workload: "zeta".into(),
            component: "STMS".into(),
            kind: "coverage".into(),
            events: 10,
            seed: 1,
            warmup: 0,
        };
        assert_eq!(trace_filename(&meta), "trace_zeta_stms_coverage.bin");
    }

    #[test]
    fn aggregate_embeds_parseable_reports() {
        let reports = vec![labelled("a", "X"), labelled("b", "Y")];
        let agg = aggregate_json(&reports);
        let v = domino_telemetry::json::parse(&agg).unwrap();
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(SWEEP_SCHEMA));
        assert_eq!(v.get("runs").and_then(|n| n.as_u64()), Some(2));
        assert_eq!(
            v.get("reports").and_then(|r| r.as_arr()).map(|a| a.len()),
            Some(2)
        );
    }
}
