//! Tenant-isolation tests: adversarial aliasing across tenants must not
//! leak predictions or metadata, and the memory-pressure responses
//! (per-tenant resets, shard-wide LRU eviction) must degrade service
//! without corrupting surviving tenants.
//!
//! Strategy: every tenant replays the *same* adversarial trace shape
//! (pointer-chasing with heavy line reuse, identical PCs) remapped into
//! a disjoint line region per tenant. Identical PCs and identical
//! relative patterns maximize the chance that any shared state — a
//! stray global table, a shard mixing sessions, an engine pool leaking
//! cache state — manifests as one tenant's lines appearing in another
//! tenant's metadata or decisions.

use std::sync::Arc;
use std::time::Instant;

use domino_check::Generator;
use domino_service::{BatchRequest, MetadataService, ServiceConfig, TenantSession};
use domino_sim::engine::run_coverage_session;
use domino_sim::roster::System;
use domino_sim::SystemConfig;
use domino_trace::addr::LineAddr;
use domino_trace::event::AccessEvent;

const DEGREE: usize = 4;
/// Low-36-bit line mask; tenant tags sit at bit 40, so regions are
/// disjoint by construction.
const LINE_MASK: u64 = (1 << 36) - 1;
const TENANT_SHIFT: u32 = 40;

/// The shared adversarial shape remapped into tenant `t`'s region.
fn tenant_trace(base: &[AccessEvent], t: u64) -> Arc<[AccessEvent]> {
    base.iter()
        .map(|ev| {
            let line = (ev.line().raw() & LINE_MASK) | (t << TENANT_SHIFT);
            AccessEvent {
                addr: LineAddr::new(line).to_addr(),
                ..*ev
            }
        })
        .collect::<Vec<_>>()
        .into()
}

/// Interleaves every tenant's stream through `service` in small
/// non-divisor batches, round-robin, preserving per-tenant order.
/// `systems[t]` is tenant `t`'s prefetcher, so heterogeneous rosters
/// can share a shard.
fn submit_interleaved_mixed(
    service: &MetadataService,
    systems: &[System],
    streams: &[Arc<[AccessEvent]>],
    batch: usize,
) {
    assert_eq!(systems.len(), streams.len());
    let client = service.client();
    let mut cursors = vec![0usize; streams.len()];
    let mut live = streams.len();
    while live > 0 {
        live = 0;
        for (t, cursor) in cursors.iter_mut().enumerate() {
            let len = streams[t].len();
            if *cursor >= len {
                continue;
            }
            let start = *cursor;
            let end = (start + batch).min(len);
            *cursor = end;
            if end < len {
                live += 1;
            }
            client.submit(BatchRequest {
                tenant: t as u64,
                system: systems[t],
                trace: Arc::clone(&streams[t]),
                base: 0,
                len: len as u32,
                start: start as u32,
                end: end as u32,
                enqueued: Instant::now(),
                span: None,
            });
        }
    }
}

/// The homogeneous form: every tenant runs the same system.
fn submit_interleaved(
    service: &MetadataService,
    system: System,
    streams: &[Arc<[AccessEvent]>],
    batch: usize,
) {
    submit_interleaved_mixed(service, &vec![system; streams.len()], streams, batch);
}

#[test]
fn aliased_tenants_do_not_leak_predictions_or_metadata() {
    const TENANTS: u64 = 6;
    let base = Generator::PointerChase.generate(0xA11A5, 500);
    let streams: Vec<Arc<[AccessEvent]>> = (0..TENANTS).map(|t| tenant_trace(&base, t)).collect();
    for system in [System::Domino, System::Stms] {
        let service = MetadataService::start(ServiceConfig {
            shards: 3,
            queue_depth: 4,
            degree: DEGREE,
            ..ServiceConfig::default()
        });
        submit_interleaved(&service, system, &streams, 13);
        let result = service.shutdown();
        for (t, stream) in streams.iter().enumerate() {
            let fin = result
                .tenant(t as u64)
                .expect("every tenant ends in exactly one final");
            assert!(!fin.evicted, "no budget was set, nothing may be evicted");
            assert_eq!(fin.gap_events, 0, "blocking policy never sheds");
            // Bit-identical to a lone single-tenant run of the same
            // stream: report, digest, and metadata membership.
            let mut reference = system.build(DEGREE);
            let (ref_report, ref_digest) =
                run_coverage_session(&SystemConfig::paper(), stream, reference.as_mut(), 32);
            assert_eq!(
                fin.digest,
                ref_digest,
                "{} tenant {t}: decision digest diverged",
                system.label()
            );
            assert_eq!(
                format!("{:?}", fin.report),
                format!("{ref_report:?}"),
                "{} tenant {t}: coverage report diverged",
                system.label()
            );
            for ev in stream.iter() {
                assert_eq!(
                    fin.prefetcher.knows_line(ev.line()),
                    reference.knows_line(ev.line()),
                    "{} tenant {t}: own-line membership diverged",
                    system.label()
                );
            }
            // The adversarial core: no other tenant's lines may have
            // leaked into this tenant's metadata. Regions are disjoint,
            // so any `true` here is cross-tenant contamination.
            for (other, other_stream) in streams.iter().enumerate() {
                if other == t {
                    continue;
                }
                for ev in other_stream.iter() {
                    assert!(
                        !fin.prefetcher.knows_line(ev.line()),
                        "{} tenant {t}: knows tenant {other}'s line {:#x}",
                        system.label(),
                        ev.line().raw()
                    );
                }
            }
        }
    }
}

/// The post-Domino rivals as co-resident tenants: a Pangloss tenant and
/// a Triangel tenant interleave through one shard worker, each on the
/// shared adversarial shape in its own line region. Both must end
/// byte-identical to lone single-tenant runs (digest, report, own-line
/// membership) and free of the other rival's lines — the two systems
/// share nothing, not even by accident of sharing a shard.
#[test]
fn pangloss_and_triangel_tenants_coexist_on_one_shard() {
    let systems = [System::Pangloss, System::Triangel];
    let base = Generator::PointerChase.generate(0x71A6E1, 500);
    let streams: Vec<Arc<[AccessEvent]>> = (0..systems.len() as u64)
        .map(|t| tenant_trace(&base, t))
        .collect();
    let service = MetadataService::start(ServiceConfig {
        shards: 1,
        queue_depth: 4,
        degree: DEGREE,
        ..ServiceConfig::default()
    });
    submit_interleaved_mixed(&service, &systems, &streams, 13);
    let result = service.shutdown();
    for (t, (system, stream)) in systems.iter().zip(&streams).enumerate() {
        let fin = result
            .tenant(t as u64)
            .expect("every tenant ends in exactly one final");
        assert!(!fin.evicted, "no budget was set, nothing may be evicted");
        assert_eq!(fin.gap_events, 0, "blocking policy never sheds");
        let mut reference = system.build(DEGREE);
        let (ref_report, ref_digest) =
            run_coverage_session(&SystemConfig::paper(), stream, reference.as_mut(), 32);
        assert_eq!(
            fin.digest,
            ref_digest,
            "{} tenant {t}: decision digest diverged from the lone run",
            system.label()
        );
        assert_eq!(
            format!("{:?}", fin.report),
            format!("{ref_report:?}"),
            "{} tenant {t}: coverage report diverged from the lone run",
            system.label()
        );
        for ev in stream.iter() {
            assert_eq!(
                fin.prefetcher.knows_line(ev.line()),
                reference.knows_line(ev.line()),
                "{} tenant {t}: own-line membership diverged",
                system.label()
            );
        }
        for (other, other_stream) in streams.iter().enumerate() {
            if other == t {
                continue;
            }
            for ev in other_stream.iter() {
                assert!(
                    !fin.prefetcher.knows_line(ev.line()),
                    "{} tenant {t}: knows the co-resident rival's line {:#x}",
                    system.label(),
                    ev.line().raw()
                );
            }
        }
    }
}

/// Runs four tenants of `system` under a tenant budget 256 bytes above
/// the footprint of a fresh session (the fixed engine-model overhead):
/// any system whose metadata grows with the stream trips it mid-run (a
/// tenant here ends with 0.7–0.8 KB of metadata), while one that reports
/// no metadata never would. One shard keeps all
/// tenants adjacent to the offender; a reset must neither evict a
/// tenant nor lose its stream position.
fn assert_budget_resets_keep_positions(system: System) {
    const TENANTS: u64 = 4;
    let base = Generator::PointerChase.generate(0xB0D9, 400);
    let streams: Vec<Arc<[AccessEvent]>> = (0..TENANTS).map(|t| tenant_trace(&base, t)).collect();
    let mut cfg = ServiceConfig {
        shards: 1,
        degree: DEGREE,
        ..ServiceConfig::default()
    };
    let overhead = TenantSession::new(0, system, &cfg, 0).footprint();
    cfg.tenant_budget_bytes = overhead + 256;
    let service = MetadataService::start(cfg);
    submit_interleaved(&service, system, &streams, 13);
    let result = service.shutdown();
    let resets: u64 = result.finals().map(|f| f.resets).sum();
    let batches: u64 = result.finals().map(|f| f.batches).sum();
    assert!(resets > 0, "{system:?}: budget never tripped; lower it");
    assert!(
        resets < batches,
        "{system:?}: every batch reset, so the budget sits below the overhead"
    );
    for (t, _) in streams.iter().enumerate() {
        let fin = result.tenant(t as u64).expect("one final per tenant");
        assert!(!fin.evicted);
        assert_eq!(fin.gap_events, 0);
        assert_eq!(
            fin.report.accesses,
            streams[t].len() as u64,
            "{system:?} tenant {t}: resets must not lose stream position"
        );
    }
}

#[test]
fn tenant_budget_resets_only_the_offender() {
    assert_budget_resets_keep_positions(System::Stms);
}

/// Digram and Domino-Naive grow a history and pair-keyed index maps like
/// Stms does, so the same budget must bound them.
#[test]
fn tenant_budget_bounds_digram_and_naive_domino() {
    for system in [System::Digram, System::DominoNaive] {
        assert_budget_resets_keep_positions(system);
    }
}

#[test]
fn shard_budget_evicts_lru_and_completes() {
    const TENANTS: u64 = 5;
    let base = Generator::PointerChase.generate(0xE51C, 300);
    let streams: Vec<Arc<[AccessEvent]>> = (0..TENANTS).map(|t| tenant_trace(&base, t)).collect();
    // The budget holds roughly two Stms sessions, so the single shard
    // must evict continuously while all five tenants stay live.
    let service = MetadataService::start(ServiceConfig {
        shards: 1,
        degree: DEGREE,
        shard_budget_bytes: 40 * 1024,
        ..ServiceConfig::default()
    });
    submit_interleaved(&service, System::Stms, &streams, 13);
    let result = service.shutdown();
    assert_eq!(result.shards.len(), 1);
    let stats = &result.shards[0].stats;
    assert!(stats.evictions > 0, "budget never forced an eviction");
    assert_eq!(stats.events, TENANTS * 300, "every event was still served");
    // Every tenant's stream completes: its finals (eviction fragments
    // plus the drain-time session) cover the whole stream back-to-back.
    for t in 0..TENANTS {
        let mut spans: Vec<(u64, usize)> = result.shards[0]
            .finals
            .iter()
            .filter(|f| f.tenant == t)
            .map(|f| (f.gap_events, f.processed))
            .collect();
        spans.sort_by_key(|&(_, end)| end);
        assert_eq!(
            spans.last().map(|&(_, end)| end),
            Some(300),
            "tenant {t}: stream did not run to completion"
        );
        assert!(
            spans.iter().all(|&(gaps, _)| gaps == 0),
            "tenant {t}: blocking policy must not create gaps"
        );
    }
}
