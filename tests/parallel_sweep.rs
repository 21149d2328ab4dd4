//! Integration tests for figure sweeps (`sim::figures::Sweep` on the
//! `sim::exec` executor).
//!
//! The executor promises byte-identical figure output at any job count;
//! the determinism tests here are the regression gate for that promise.
//! A sweep promises to run each distinct cell once, so figures that
//! share runs deposit each observed one once. The smoke test pushes the
//! full figure roster through the executor at a reduced scale, which
//! catches `Send`-bound regressions in any prefetcher (every figure
//! cell moves a built prefetcher to a worker thread) as well as panics
//! in individual runners.

use std::collections::HashSet;

use domino_repro::sim::figures::{
    self, bandwidth_utilization, fig01, fig02, fig03, fig04, fig05, fig06, fig09, fig10, fig11,
    fig12, fig13, fig14, fig15, fig16, rivals, Scale, Sweep,
};
use domino_repro::sim::{observe, FigureTable};

/// A fresh sweep at `scale` on `jobs` workers with the given epoch and
/// trace capacity, whatever the environment says, at the default batch.
fn sweep(scale: Scale, jobs: usize, epoch: Option<u64>, trace: Option<u64>) -> Sweep {
    let mut sweep = Sweep::new(scale);
    sweep.jobs = jobs;
    sweep.epoch = epoch;
    sweep.trace = trace;
    sweep
}

/// Each trace's file name and bytes.
fn trace_bytes(traces: &[observe::TraceCell]) -> Vec<(String, Vec<u8>)> {
    traces
        .iter()
        .map(|t| {
            (
                observe::trace_filename(&t.meta),
                t.recorder.to_bytes(&t.meta),
            )
        })
        .collect()
}

const SCALE: Scale = Scale {
    events: 20_000,
    seed: 11,
};

#[test]
fn fig01_is_byte_identical_at_any_job_count() {
    let serial = fig01(&mut sweep(SCALE, 1, None, None));
    let parallel = fig01(&mut sweep(SCALE, 8, None, None));
    // Bitwise-equal values (no tolerance: determinism means identity)...
    for (a, b) in serial.values.iter().zip(&parallel.values) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "value drifted between job counts");
        }
    }
    // ...and byte-identical rendered tables.
    assert_eq!(format!("{serial}"), format!("{parallel}"));
}

#[test]
fn telemetry_json_is_byte_identical_at_any_job_count() {
    let run = |jobs| {
        let mut sweep = sweep(SCALE, jobs, Some(5_000), None);
        let tables = fig13(&mut sweep);
        let reports = sweep.take_reports();
        assert!(!reports.is_empty(), "observed fig13 produced no telemetry");
        (tables, observe::aggregate_json(&reports))
    };
    let (serial_tables, serial_json) = run(1);
    let (parallel_tables, parallel_json) = run(8);
    assert_eq!(
        serial_json, parallel_json,
        "telemetry drifted between job counts"
    );
    for (a, b) in serial_tables.iter().zip(&parallel_tables) {
        assert_eq!(
            format!("{a}"),
            format!("{b}"),
            "figure drifted with telemetry on"
        );
    }
}

#[test]
fn trace_files_are_byte_identical_at_any_job_count() {
    let run = |jobs| {
        let mut sweep = sweep(SCALE, jobs, None, Some(4096));
        let tables = fig13(&mut sweep);
        let traces = sweep.take_traces();
        assert!(!traces.is_empty(), "traced fig13 produced no traces");
        (tables, trace_bytes(&traces))
    };
    let (serial_tables, serial_bytes) = run(1);
    let (parallel_tables, parallel_bytes) = run(8);
    assert_eq!(serial_bytes.len(), parallel_bytes.len());
    for ((name_a, bytes_a), (name_b, bytes_b)) in serial_bytes.iter().zip(&parallel_bytes) {
        assert_eq!(name_a, name_b, "trace set drifted between job counts");
        assert!(
            bytes_a == bytes_b,
            "{name_a}: trace bytes drifted between job counts"
        );
    }
    for (a, b) in serial_tables.iter().zip(&parallel_tables) {
        assert_eq!(
            format!("{a}"),
            format!("{b}"),
            "figure drifted with tracing on"
        );
    }
}

#[test]
fn figures_are_byte_identical_at_any_batch_size() {
    let run = |batch| {
        let mut sweep = sweep(SCALE, 2, None, None);
        sweep.batch = batch;
        (
            format!("{}", fig01(&mut sweep)),
            format!("{}", fig14(&mut sweep)),
        )
    };
    let one = run(1);
    for batch in [2, 7, 64] {
        assert_eq!(
            one,
            run(batch),
            "figure output drifted between batch 1 and batch {batch}"
        );
    }
}

#[test]
fn telemetry_json_is_byte_identical_at_any_batch_size() {
    let run = |batch| {
        let mut sweep = sweep(SCALE, 2, Some(5_000), Some(4_096));
        sweep.batch = batch;
        let mut tables: Vec<String> = fig13(&mut sweep).iter().map(|t| format!("{t}")).collect();
        tables.push(format!("{}", fig14(&mut sweep)));
        let reports = sweep.take_reports();
        let traces = sweep.take_traces();
        assert!(
            !reports.is_empty(),
            "observed figures produced no telemetry"
        );
        assert!(!traces.is_empty(), "traced figures produced no traces");
        (
            tables,
            observe::aggregate_json(&reports),
            trace_bytes(&traces),
        )
    };
    let one = run(1);
    for batch in [7, 64] {
        let other = run(batch);
        assert_eq!(one.1, other.1, "telemetry drifted at batch {batch}");
        assert_eq!(one.0, other.0, "figures drifted with observation on");
        assert_eq!(one.2.len(), other.2.len(), "trace set drifted");
        for ((name_a, bytes_a), (name_b, bytes_b)) in one.2.iter().zip(&other.2) {
            assert_eq!(name_a, name_b, "trace set drifted at batch {batch}");
            assert!(
                bytes_a == bytes_b,
                "{name_a}: trace bytes drifted at batch {batch}"
            );
        }
    }
}

#[test]
fn shared_cells_run_and_deposit_once() {
    let scale = Scale {
        events: 8_000,
        seed: 5,
    };
    let render = |tables: Vec<FigureTable>| -> Vec<String> {
        tables.iter().map(|t| format!("{t}")).collect()
    };
    // Figures 13, 14, 15 and the rivals tables on one observed sweep:
    // rivals re-reads Figure 13's and 14's STMS, Digram and Domino
    // cells, and Figure 15 reads their unobserved twins.
    let mut shared = sweep(scale, 2, Some(5_000), Some(4_096));
    let mut tables = render(fig13(&mut shared));
    tables.push(format!("{}", fig14(&mut shared)));
    tables.push(format!("{}", fig15(&mut shared)));
    tables.extend(render(rivals(&mut shared)));
    let reports = shared.take_reports();
    let traces = shared.take_traces();

    // Each figure alone on a fresh, unobserved sweep prints the same.
    let fresh = || sweep(scale, 2, None, None);
    let mut alone = render(fig13(&mut fresh()));
    alone.push(format!("{}", fig14(&mut fresh())));
    alone.push(format!("{}", fig15(&mut fresh())));
    alone.extend(render(rivals(&mut fresh())));
    assert_eq!(tables, alone, "sharing cells changed a table");

    // Per workload: coverage of the paper roster plus Pangloss and
    // Triangel (7 systems), timing of those and the baseline (8).
    let distinct = 9 * 7 + 9 * 8;
    let report_names: HashSet<String> = reports.iter().map(observe::cell_filename).collect();
    assert_eq!(reports.len(), distinct, "a shared cell deposited twice");
    assert_eq!(report_names.len(), distinct, "telemetry file names collide");
    let trace_names: HashSet<String> = traces
        .iter()
        .map(|t| observe::trace_filename(&t.meta))
        .collect();
    assert_eq!(traces.len(), distinct, "a shared cell traced twice");
    assert_eq!(trace_names.len(), distinct, "trace file names collide");
}

#[test]
fn full_roster_runs_through_the_executor() {
    let mut sweep = sweep(Scale::small(), 4, None, None);
    let mut tables = vec![
        fig01(&mut sweep),
        fig02(&mut sweep),
        fig03(&mut sweep),
        fig04(&mut sweep),
        fig06(&mut sweep),
        fig09(&sweep),
        fig10(&sweep),
        fig12(&mut sweep),
        fig14(&mut sweep),
        fig15(&mut sweep),
        fig16(&mut sweep),
        bandwidth_utilization(&sweep),
        figures::opportunity_methods(&sweep),
        figures::mlp_sensitivity(&sweep),
    ];
    tables.extend(fig05(&mut sweep));
    tables.extend(fig11(&mut sweep));
    tables.extend(fig13(&mut sweep));
    tables.extend(figures::extended_roster(&mut sweep));
    for t in &tables {
        assert!(!t.rows.is_empty(), "{}: no rows", t.title);
        assert!(!t.columns.is_empty(), "{}: no columns", t.title);
        for row in &t.values {
            assert_eq!(row.len(), t.columns.len(), "{}: ragged row", t.title);
        }
    }
}
