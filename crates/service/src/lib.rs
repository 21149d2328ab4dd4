//! A sharded, concurrent, multi-tenant prefetch-metadata service.
//!
//! The paper's defining design choice is that correlation metadata lives
//! **off-chip** and is consulted over a request/response channel (§III).
//! This crate pushes that to its logical extreme: a long-running service
//! that fields thousands of independent tenant miss streams against
//! sharded metadata state, the shape such a component would take inside
//! a storage or caching tier serving heavy multi-tenant traffic.
//!
//! Architecture, in one pass through the modules:
//!
//! * [`session`] — one [`session::TenantSession`] per tenant: an owned
//!   prefetcher plus an incremental
//!   [`domino_sim::CoverageSession`], so a tenant's stream replayed in
//!   request-batch increments produces decisions **bit-identical** to a
//!   single-tenant `sim` run of the same stream (the coverage engine's
//!   partition invariance makes chunk boundaries irrelevant).
//! * [`shard`] — shard-per-thread state: each worker owns the sessions
//!   of the tenants hashed to it, so no lock ever guards metadata.
//!   Enforces the memory-pressure policy: per-tenant budgets reset a
//!   tenant's metadata in place; a shard-wide budget evicts whole
//!   sessions in LRU order.
//! * [`service`] — the front: tenant→shard hashing, bounded request
//!   queues, and the counted backpressure policy
//!   ([`service::OverloadPolicy::Block`] applies backpressure to the
//!   submitter, [`service::OverloadPolicy::Shed`] rejects and counts).
//! * [`load`] — a deterministic load generator synthesizing tenant
//!   streams as windows into the shared Table-II workload traces
//!   ([`domino_sim::trace_cache::shared_tenant_slice`]).
//! * [`report`] — the schema-versioned `SERVICE_report.json`: per-shard
//!   throughput plus p50/p95/p99 request latency out of
//!   [`domino_telemetry::FixedHistogram`]s.
//! * [`obs`] — the **live observability plane** (opt-in via
//!   [`ServiceConfig::obs`]): per-shard
//!   [`domino_telemetry::MetricsRing`]s sampled on an event-count
//!   cadence, deterministic 1-in-N request span tracing
//!   ([`domino_telemetry::SpanRing`]), and the `OBS_report.json`
//!   renderer. `domino-top` tails the serialized rings.
//! * [`slo`] — declarative SLO thresholds (p99 latency, shed ratio,
//!   eviction rate) with fast/slow-window burn-rate evaluation;
//!   `domino-serve --slo` exits nonzero on breach.
//!
//! Correctness is anchored by the `domino-check` `service_equivalence`
//! oracle tier: an N-tenant sharded run must match N independent
//! single-tenant runs per tenant — same coverage report bytes, same
//! decision digest, same metadata membership. The observability plane
//! gets its own `observability_audit` tier (span chronology,
//! interval-counter conservation) and must leave disarmed runs
//! byte-identical.

pub mod load;
pub mod obs;
pub mod report;
pub mod service;
pub mod session;
pub mod shard;
pub mod slo;

pub use load::{run_load, tenant_stream, LoadPlan, LoadReport};
pub use obs::{
    latency_from_columns, render_obs_report, shard_metric_specs, ObsConfig, ObsFront,
    ShardObsOutcome, SpanStart, OBS_SCHEMA,
};
pub use report::{render_report, LATENCY_BOUNDS_NS, SCHEMA};
pub use service::{MetadataService, OverloadPolicy, ServiceClient, ServiceConfig, ServiceResult};
pub use session::{TenantFinal, TenantSession};
pub use shard::{BatchRequest, ShardOutcome, ShardStats};
pub use slo::{Objective, SloReport, SloSpec};

/// The `domino-serve` exit decision, factored out so the satellite exit
/// paths are unit-testable: a run fails when `--fail-on-shed` was asked
/// and any work was shed, or when the SLO evaluation breached.
pub fn run_failed(total_shed: u64, fail_on_shed: bool, slo_breached: bool) -> bool {
    (fail_on_shed && total_shed > 0) || slo_breached
}

#[cfg(test)]
mod exit_tests {
    use super::run_failed;

    #[test]
    fn shed_work_fails_only_when_asked() {
        assert!(!run_failed(5, false, false), "pre-PR default: shed ignored");
        assert!(run_failed(5, true, false), "--fail-on-shed with shed work");
        assert!(!run_failed(0, true, false), "clean run passes");
    }

    #[test]
    fn slo_breach_fails_regardless_of_shed() {
        assert!(run_failed(0, false, true));
        assert!(run_failed(3, true, true));
        assert!(!run_failed(0, false, false));
    }
}
