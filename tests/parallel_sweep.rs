//! Integration tests for the parallel sweep executor (`sim::exec`).
//!
//! The executor promises byte-identical figure output at any job count;
//! the determinism test here is the regression gate for that promise.
//! The smoke test pushes the full figure roster through the executor at
//! a reduced scale, which catches `Send`-bound regressions in any
//! prefetcher (every figure cell moves a built prefetcher to a worker
//! thread) as well as panics in individual runners.

use std::sync::Mutex;

use domino_repro::sim::figures::{
    self, bandwidth_utilization, fig01, fig02, fig03, fig04, fig05, fig06, fig09, fig10, fig11,
    fig12, fig13, fig14, fig15, fig16, Scale,
};
use domino_repro::sim::{exec, observe};

/// The jobs override is process-global; tests that set it must not
/// interleave.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn fig01_is_byte_identical_at_any_job_count() {
    let _guard = JOBS_LOCK.lock().expect("unpoisoned");
    let scale = Scale {
        events: 20_000,
        seed: 11,
    };
    exec::set_jobs_override(Some(1));
    let serial = fig01(&scale);
    exec::set_jobs_override(Some(8));
    let parallel = fig01(&scale);
    exec::set_jobs_override(None);
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
    let _guard = JOBS_LOCK.lock().expect("unpoisoned");
    let scale = Scale {
        events: 20_000,
        seed: 11,
    };
    let sweep = |jobs| {
        exec::set_jobs_override(Some(jobs));
        observe::set_epoch_override(Some(5_000));
        observe::drain(); // discard anything a previous test left behind
        let tables = fig13(&scale);
        let reports = observe::drain();
        exec::set_jobs_override(None);
        observe::set_epoch_override(None);
        assert!(!reports.is_empty(), "observed fig13 produced no telemetry");
        (tables, observe::aggregate_json(&reports))
    };
    let (serial_tables, serial_json) = sweep(1);
    let (parallel_tables, parallel_json) = sweep(8);
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
    let _guard = JOBS_LOCK.lock().expect("unpoisoned");
    let scale = Scale {
        events: 20_000,
        seed: 11,
    };
    let sweep = |jobs| {
        exec::set_jobs_override(Some(jobs));
        observe::set_trace_override(Some(4096));
        let _ = observe::drain_traces(); // discard leftovers
        let tables = fig13(&scale);
        let traces = observe::drain_traces();
        exec::set_jobs_override(None);
        observe::set_trace_override(None);
        assert!(!traces.is_empty(), "traced fig13 produced no traces");
        let bytes: Vec<(String, Vec<u8>)> = traces
            .iter()
            .map(|t| {
                (
                    observe::trace_filename(&t.meta),
                    t.recorder.to_bytes(&t.meta),
                )
            })
            .collect();
        (tables, bytes)
    };
    let (serial_tables, serial_bytes) = sweep(1);
    let (parallel_tables, parallel_bytes) = sweep(8);
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
    // The batch override shares process-global state with the jobs
    // override tests, so it serializes on the same lock.
    let _guard = JOBS_LOCK.lock().expect("unpoisoned");
    let scale = Scale {
        events: 20_000,
        seed: 11,
    };
    exec::set_jobs_override(Some(2));
    let run = |batch| {
        observe::set_batch_override(Some(batch));
        let out = (format!("{}", fig01(&scale)), format!("{}", fig14(&scale)));
        observe::set_batch_override(None);
        out
    };
    let one = run(1);
    for batch in [2, 7, 64] {
        assert_eq!(
            one,
            run(batch),
            "figure output drifted between batch 1 and batch {batch}"
        );
    }
    exec::set_jobs_override(None);
}

#[test]
fn telemetry_json_is_byte_identical_at_any_batch_size() {
    let _guard = JOBS_LOCK.lock().expect("unpoisoned");
    let scale = Scale {
        events: 20_000,
        seed: 11,
    };
    let sweep = |batch| {
        observe::set_batch_override(Some(batch));
        observe::set_epoch_override(Some(5_000));
        observe::set_trace_override(Some(4_096));
        observe::drain(); // discard anything a previous test left behind
        let _ = observe::drain_traces();
        let mut tables: Vec<String> = fig13(&scale).iter().map(|t| format!("{t}")).collect();
        tables.push(format!("{}", fig14(&scale)));
        let reports = observe::drain();
        let traces = observe::drain_traces();
        observe::set_batch_override(None);
        observe::set_epoch_override(None);
        observe::set_trace_override(None);
        assert!(
            !reports.is_empty(),
            "observed figures produced no telemetry"
        );
        assert!(!traces.is_empty(), "traced figures produced no traces");
        let trace_bytes: Vec<(String, Vec<u8>)> = traces
            .iter()
            .map(|t| {
                (
                    observe::trace_filename(&t.meta),
                    t.recorder.to_bytes(&t.meta),
                )
            })
            .collect();
        (tables, observe::aggregate_json(&reports), trace_bytes)
    };
    let one = sweep(1);
    for batch in [7, 64] {
        let other = sweep(batch);
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
fn full_roster_runs_through_the_executor() {
    let _guard = JOBS_LOCK.lock().expect("unpoisoned");
    exec::set_jobs_override(Some(4));
    let scale = Scale::small();
    let mut tables = vec![
        fig01(&scale),
        fig02(&scale),
        fig03(&scale),
        fig04(&scale),
        fig06(&scale),
        fig09(&scale),
        fig10(&scale),
        fig12(&scale),
        fig14(&scale),
        fig15(&scale),
        fig16(&scale),
        bandwidth_utilization(&scale),
        figures::opportunity_methods(&scale),
        figures::mlp_sensitivity(&scale),
    ];
    tables.extend(fig05(&scale));
    tables.extend(fig11(&scale));
    tables.extend(fig13(&scale));
    tables.extend(figures::extended_roster(&scale));
    exec::set_jobs_override(None);
    for t in &tables {
        assert!(!t.rows.is_empty(), "{}: no rows", t.title);
        assert!(!t.columns.is_empty(), "{}: no columns", t.title);
        for row in &t.values {
            assert_eq!(row.len(), t.columns.len(), "{}: ragged row", t.title);
        }
    }
}
