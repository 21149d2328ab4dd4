//! Integration tests for the prefetch flight recorder (`telemetry::trace`).
//!
//! The recorder's headline promise is *conservation*: every demand miss
//! lands in exactly one loss bucket (covered, late, evicted-unused,
//! dropped, mispredicted, no-metadata), so the buckets sum to the miss
//! count — attribution never invents or loses a miss. The tests here
//! enforce that on every (workload × roster prefetcher) cell, for both
//! engines, and pin the recorder's covered count to the engine's own
//! coverage numerator when no warmup excludes events from either side.

use domino_repro::sim::observe::DEFAULT_BATCH;
use domino_repro::sim::{
    run_coverage_observed, run_timing_observed, shared_trace, Scale, System, SystemConfig,
};
use domino_repro::telemetry::Telemetry;
use domino_repro::trace::workload::catalog;

/// A trace-only telemetry handle with a deliberately small ring, so the
/// runs below wrap it many times over — conservation is maintained
/// online and must not depend on which events the ring still holds.
fn traced() -> Telemetry {
    let mut tel = Telemetry::off();
    tel.enable_trace(512);
    tel
}

#[test]
fn coverage_attribution_is_conserved_on_every_roster_cell() {
    let system = SystemConfig::paper();
    let scale = Scale {
        events: 12_000,
        seed: 42,
    };
    for spec in catalog::all() {
        let trace = shared_trace(&spec, scale.events, scale.seed);
        for sys in System::paper_roster() {
            let mut p = sys.build(4);
            let mut tel = traced();
            let report =
                run_coverage_observed(&system, &trace, p.as_mut(), 0, DEFAULT_BATCH, &mut tel);
            let rec = tel.take_tracer().expect("tracer enabled");
            assert!(rec.wrapped(), "ring of 512 must wrap at this scale");
            let a = rec.attribution();
            let cell = format!("{} / {}", spec.name, sys.label());
            assert!(
                a.is_conserved(),
                "{cell}: buckets {:?} sum to {} but {} misses were seen",
                a.buckets(),
                a.bucket_sum(),
                a.demand_misses
            );
            assert!(a.demand_misses > 0, "{cell}: no demand misses recorded");
            // With no warmup both sides count the same accesses, so the
            // trace-side attribution must agree with the engine exactly.
            assert_eq!(a.demand_misses, report.baseline_misses, "{cell}");
            assert_eq!(a.covered, report.covered, "{cell}");
        }
    }
}

#[test]
fn timing_attribution_is_conserved_on_every_roster_cell() {
    let system = SystemConfig::paper();
    let scale = Scale {
        events: 8_000,
        seed: 42,
    };
    let spec = catalog::oltp();
    let trace = shared_trace(&spec, scale.events, scale.seed);
    for sys in System::paper_roster() {
        let mut p = sys.build(4);
        let mut tel = traced();
        let _report = run_timing_observed(&system, &trace, p.as_mut(), 0, DEFAULT_BATCH, &mut tel);
        let rec = tel.take_tracer().expect("tracer enabled");
        let a = rec.attribution();
        let cell = format!("{} / {}", spec.name, sys.label());
        assert!(
            a.is_conserved(),
            "{cell}: buckets {:?} sum to {} but {} misses were seen",
            a.buckets(),
            a.bucket_sum(),
            a.demand_misses
        );
        assert!(a.demand_misses > 0, "{cell}: no demand misses recorded");
    }
}
