//! The acceptance-scale run: one thousand concurrent tenant streams
//! through the sharded service under the deterministic load generator,
//! every tenant bit-identical to its independent single-tenant run.
//!
//! This is deliberately the same shape as `domino-serve --smoke`, but
//! checked exhaustively: per-tenant decision digests and coverage
//! reports are compared against a freshly computed reference for *all*
//! tenants, not a sample. It runs for STMS and for Domino. Both keep
//! per-tenant metadata in proportion to the short streams (Domino's EIT
//! holds only the rows a tenant has written), so a thousand resident
//! sessions stay cheap, and the shards' summed peak footprint is held to
//! a bound.

use domino_service::{run_load, tenant_stream, LoadPlan, MetadataService, ServiceConfig};
use domino_sim::engine::run_coverage_session;
use domino_sim::roster::System;
use domino_sim::SystemConfig;

/// Ceiling on the shards' summed peak footprint with a thousand
/// sessions resident.
const PEAK_FOOTPRINT_LIMIT: usize = 256 << 20;

#[test]
fn thousand_tenants_complete_bit_identically() {
    for system in [System::Stms, System::Domino] {
        thousand_tenants(system);
    }
}

fn thousand_tenants(system: System) {
    let plan = LoadPlan {
        tenants: 1_000,
        events_per_tenant: 120,
        request_batch: 32,
        clients: 4,
        seed: 0xD0_5E,
        system,
        base_events: 50_000,
        trace_file: None,
    };
    let cfg = ServiceConfig {
        shards: 4,
        queue_depth: 64,
        degree: 4,
        ..ServiceConfig::default()
    };
    let degree = cfg.degree;
    let service = MetadataService::start(cfg);
    let load = {
        let client = service.client();
        run_load(&client, &plan)
    };
    let result = service.shutdown();

    // Every stream completes: no sheds under the blocking policy, every
    // offered event served, one final per tenant, none evicted.
    assert_eq!(load.shed_rejections, 0);
    assert_eq!(result.total_shed(), 0);
    assert_eq!(result.total_events(), load.events_offered);
    assert_eq!(result.finals().count(), plan.tenants as usize);
    assert_eq!(
        result.total_batches(),
        load.submitted_batches,
        "every accepted batch was served"
    );

    // Exhaustive per-tenant equivalence against single-tenant runs.
    for tenant in 0..plan.tenants {
        let fin = result.tenant(tenant).expect("exactly one final per tenant");
        assert!(!fin.evicted);
        assert_eq!(fin.gap_events, 0);
        assert_eq!(fin.processed, plan.events_per_tenant);
        let slice = tenant_stream(&plan, tenant);
        let mut reference = plan.system.build(degree);
        let (ref_report, ref_digest) = run_coverage_session(
            &SystemConfig::paper(),
            slice.events(),
            reference.as_mut(),
            64,
        );
        assert_eq!(
            fin.digest,
            ref_digest,
            "{} tenant {tenant}: decision digest diverged from single-tenant run",
            system.label()
        );
        assert_eq!(
            format!("{:?}", fin.report),
            format!("{ref_report:?}"),
            "{} tenant {tenant}: coverage report diverged from single-tenant run",
            system.label()
        );
    }

    // Shard sanity: tenants spread across all shards, and the per-shard
    // event counts add up.
    let spread = result
        .shards
        .iter()
        .filter(|s| !s.finals.is_empty())
        .count();
    assert_eq!(spread, 4, "tenant hashing left a shard idle");
    let per_shard: u64 = result.shards.iter().map(|s| s.stats.events).sum();
    assert_eq!(per_shard, load.events_offered);
    let peak: usize = result.shards.iter().map(|s| s.stats.peak_footprint).sum();
    assert!(
        peak < PEAK_FOOTPRINT_LIMIT,
        "{}: shards peaked at {peak} bytes with every session resident",
        system.label()
    );
}
