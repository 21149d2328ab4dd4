//! `service-tenants`: the deterministic load generator against a
//! one-shard metadata service under the blocking policy, with every
//! tenant running Domino.
//!
//! The service steps the coverage engine in 32-event request batches
//! across many cold sessions, where `stream-coverage` runs one long warm
//! replay, and adds queueing and session opening on top. Tenants are
//! few enough that every session stays resident (each Domino session
//! allocates an 8 MB EIT row index when it opens).
//!
//! The tenants window into one base trace the benchmark writes during
//! set-up: all nine Table-II workloads, time-sliced in short slices as
//! on a multi-programmed core. Every tenant window then holds nearly the
//! same mix of workloads, where drawing one workload per tenant (the load
//! generator's own default) would make a pass's cost depend on how many
//! tenants the seed gave each workload.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use domino_mem::interface::Prefetcher;
use domino_service::{
    run_load, tenant_stream, BatchRequest, LoadPlan, MetadataService, OverloadPolicy,
    ServiceClient, ServiceConfig, ServiceResult, TenantSession,
};
use domino_sim::trace_cache::TenantSlice;
use domino_sim::{run_coverage_session, CoverageReport, CoverageSession, System};
use domino_trace::stream::Codec;
use domino_trace::workload::catalog;

use crate::affinity::{pin_current_thread, two_cpus};
use crate::layers::{Clocks, TimedPrefetcher};
use crate::stream::coverage_counts;
use crate::{write_trace, Digest, Pass, SetupTimes, Verified, Workload};

/// Tenant streams offered per pass.
pub const TENANTS: u64 = 32;
/// Events per tenant stream.
pub const EVENTS_PER_TENANT: usize = 8192;
/// Events per request.
pub const REQUEST_BATCH: usize = 32;
/// Requests one pass offers.
const REQUESTS_PER_PASS: usize = TENANTS as usize * EVENTS_PER_TENANT / REQUEST_BATCH;
/// Length of the base trace the tenant windows are cut from.
const BASE_EVENTS: usize = 300_000;
/// Events each workload runs before the next one's turn in the base trace.
const SLICE_EVENTS: usize = 1024;

/// One tenant's closed result.
struct Final {
    tenant: u64,
    digest: u64,
    report: CoverageReport,
}

/// The prepared inputs and the service the next pass runs against.
pub struct ServiceTenants {
    plan: LoadPlan,
    path: PathBuf,
    streams: Vec<TenantSlice>,
    /// Generator and shard CPUs, where the process has two.
    cpus: Option<(usize, usize)>,
    service: Option<MetadataService>,
    /// Per-tenant results of the most recent pass, by tenant id.
    last: Vec<Final>,
}

/// Starts a service whose shard thread runs on `cpus.1`, leaving the
/// calling thread, and the generator threads it spawns, on `cpus.0`.
fn start(cpus: Option<(usize, usize)>) -> MetadataService {
    let Some((generator, shard)) = cpus else {
        return MetadataService::start(config());
    };
    pin_current_thread(shard);
    let service = MetadataService::start(config());
    pin_current_thread(generator);
    service
}

fn config() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        queue_depth: REQUESTS_PER_PASS,
        policy: OverloadPolicy::Block,
        tenant_budget_bytes: usize::MAX,
        shard_budget_bytes: usize::MAX,
        digest: true,
        obs: None,
        ..ServiceConfig::default()
    }
}

impl Drop for ServiceTenants {
    fn drop(&mut self) {
        // The scratch file is this process's own; nothing else reads it.
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Workload for ServiceTenants {
    fn setup(seed: u64, work_dir: &Path) -> Result<(Self, SetupTimes), String> {
        let path = work_dir.join(format!("tenants-{seed}-{}.dmno", std::process::id()));
        let plan = LoadPlan {
            tenants: TENANTS,
            events_per_tenant: EVENTS_PER_TENANT,
            request_batch: REQUEST_BATCH,
            clients: 1,
            seed,
            system: System::Domino,
            base_events: BASE_EVENTS,
            trace_file: Some(path.clone()),
        };
        let mut workload = ServiceTenants {
            plan,
            path,
            streams: Vec::new(),
            cpus: two_cpus(),
            service: None,
            last: Vec::new(),
        };
        let mut times = SetupTimes::default();
        let specs = catalog::all();
        let mut generators: Vec<_> = (0..specs.len() as u64)
            .zip(&specs)
            .map(|(i, spec)| spec.generator(seed.wrapping_mul(specs.len() as u64).wrapping_add(i)))
            .collect();
        let slices = (0..BASE_EVENTS / SLICE_EVENTS).map(|turn| {
            generators[turn % specs.len()]
                .by_ref()
                .take(SLICE_EVENTS)
                .collect()
        });
        write_trace(&workload.path, Codec::Raw, slices, &mut times)?;
        let t0 = Instant::now();
        // The load generator decodes the file once and windows it.
        workload.streams = (0..TENANTS)
            .map(|t| tenant_stream(&workload.plan, t))
            .collect();
        times.encode_s += t0.elapsed().as_secs_f64();
        workload.service = Some(start(workload.cpus));
        Ok((workload, times))
    }

    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        let service = self.service.take().unwrap_or_else(|| start(self.cpus));
        let client = service.client();
        let t0 = Instant::now();
        let blocked_s = if traced {
            self.submit_all(&client)
        } else {
            let load = run_load(&client, &self.plan);
            if load.shed_rejections > 0 {
                return Err(format!("{} batches shed under Block", load.shed_rejections));
            }
            0.0
        };
        drop(client);
        let result = service.shutdown();
        let service_s = t0.elapsed().as_secs_f64();
        // The next pass's service starts outside the measured window.
        self.service = Some(start(self.cpus));
        let digest = self.collect(&result)?;
        let events = TENANTS * EVENTS_PER_TENANT as u64;
        let mut pass = Pass::plain(events, service_s, digest);
        if traced {
            let stats = &result.shards[0].stats;
            let busy_s = stats.busy_ns as f64 * 1e-9;
            pass.time("front.submit_blocked_s", blocked_s, false);
            pass.time("shard.busy_s", busy_s, true);
            pass.mean("shard.busy_frac", busy_s / service_s, "fraction");
            let served = stats.latency.total().max(1);
            pass.mean(
                "shard.batch_mean_us",
                stats.latency.sum() as f64 / served as f64 / 1e3,
                "us",
            );
            let (open_s, replica) = self.replay_outside()?;
            pass.mean("session.open_ms", open_s * 1e3 / TENANTS as f64, "ms");
            pass.attributed_s += open_s;
            pass.time("roster.build_s", replica.build_s, true);
            pass.time("coverage.prefetcher_s", replica.prefetcher_s, true);
            pass.time("coverage.apply_s", replica.apply_s, true);
            pass.time("coverage.stage_s", replica.stage_s, true);
            pass.wall_s = service_s + replica.phases_s;
            pass.exact("shard.batches", stats.batches as f64, "count");
            pass.exact("shard.sessions", self.last.len() as f64, "count");
            pass.exact("shard.peak_tenants", stats.peak_tenants as f64, "count");
            pass.exact(
                "shard.peak_footprint_mb",
                stats.peak_footprint as f64 / (1024.0 * 1024.0),
                "MB",
            );
            let reports: Vec<CoverageReport> = self.last.iter().map(|f| f.report.clone()).collect();
            coverage_counts(&mut pass, &reports, replica.triggers);
        }
        Ok(pass)
    }

    fn verify(&mut self) -> Result<Verified, String> {
        // Each tenant alone through the reference session runner must
        // match what the service produced for it.
        let cfg = config();
        let mut v = Verified::default();
        for (slice, fin) in self.streams.iter().zip(&self.last) {
            let mut p = self.plan.system.build(cfg.degree);
            let (r, digest) =
                run_coverage_session(&cfg.system, slice.events(), p.as_mut(), REQUEST_BATCH);
            let (mut a, mut b) = (Digest::default(), Digest::default());
            a.coverage(&r);
            b.coverage(&fin.report);
            v.check(a == b && digest == fin.digest);
        }
        Ok(v)
    }

    fn threads(&self) -> usize {
        2
    }

    fn events_per_pass(&self) -> u64 {
        TENANTS * EVENTS_PER_TENANT as u64
    }

    fn placement(&self) -> String {
        match self.cpus {
            Some((generator, shard)) => {
                format!("generator on cpu {generator}, shard on cpu {shard}")
            }
            None => "unpinned".into(),
        }
    }
}

/// Host times of the traced phases that replay the shard's work
/// outside the service.
struct Replica {
    build_s: f64,
    prefetcher_s: f64,
    apply_s: f64,
    stage_s: f64,
    triggers: u64,
    /// Wall seconds of the open and replay phases together.
    phases_s: f64,
}

impl ServiceTenants {
    /// The traced twin of `run_load` with one client: the same tenant
    /// order and request stream, with the time blocked in
    /// [`ServiceClient::submit`] summed. Returns that time.
    fn submit_all(&self, client: &ServiceClient) -> f64 {
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut blocked = 0.0;
                    let mut cursors = vec![0usize; self.streams.len()];
                    let mut live = true;
                    while live {
                        live = false;
                        for (tenant, (slice, cursor)) in
                            self.streams.iter().zip(&mut cursors).enumerate()
                        {
                            if *cursor >= slice.len {
                                continue;
                            }
                            let start = *cursor;
                            let end = (start + REQUEST_BATCH).min(slice.len);
                            *cursor = end;
                            live |= end < slice.len;
                            let req = BatchRequest {
                                tenant: tenant as u64,
                                system: self.plan.system,
                                trace: Arc::clone(&slice.trace),
                                base: slice.start as u32,
                                len: slice.len as u32,
                                start: start as u32,
                                end: end as u32,
                                enqueued: Instant::now(),
                                span: None,
                            };
                            let t0 = Instant::now();
                            client.submit(req);
                            blocked += t0.elapsed().as_secs_f64();
                        }
                    }
                    blocked
                })
                .join()
                .expect("submitter panicked")
        })
    }

    /// Folds every tenant's closed session, in tenant order, and keeps
    /// them for [`Workload::verify`].
    fn collect(&mut self, result: &ServiceResult) -> Result<Digest, String> {
        let mut finals: Vec<Final> = result
            .finals()
            .map(|f| Final {
                tenant: f.tenant,
                digest: f.digest,
                report: f.report.clone(),
            })
            .collect();
        finals.sort_by_key(|f| f.tenant);
        if finals.len() as u64 != TENANTS
            || result.total_events() != TENANTS * EVENTS_PER_TENANT as u64
        {
            return Err(format!(
                "service closed {} sessions over {} events",
                finals.len(),
                result.total_events()
            ));
        }
        let mut digest = Digest::default();
        for f in &finals {
            digest.word(f.tenant);
            digest.word(f.digest);
            digest.coverage(&f.report);
        }
        self.last = finals;
        Ok(digest)
    }

    /// Opens every tenant's session once (timed), then replays every
    /// tenant's stream in request batches through a coverage session
    /// driving a timed prefetcher, exactly as the shard steps it. Each
    /// replayed tenant must reproduce the service's result. Returns the
    /// total open time and the replay's layer times.
    fn replay_outside(&self) -> Result<(f64, Replica), String> {
        let cfg = config();
        let t_phases = Instant::now();
        let mut open_s = 0.0;
        for tenant in 0..TENANTS {
            let t0 = Instant::now();
            let session = TenantSession::new(tenant, self.plan.system, &cfg, 0);
            open_s += t0.elapsed().as_secs_f64();
            drop(session);
        }
        let clocks = Clocks::shared();
        let (mut build_s, mut replay_s) = (0.0, 0.0);
        for (slice, fin) in self.streams.iter().zip(&self.last) {
            let t0 = Instant::now();
            let mut p =
                TimedPrefetcher::new(self.plan.system.build(cfg.degree), Arc::clone(&clocks));
            let t1 = Instant::now();
            let mut session = CoverageSession::new(&cfg.system, p.name(), 0);
            session.enable_digest();
            let events = slice.events();
            let mut end = 0;
            while end < events.len() {
                end = (end + REQUEST_BATCH).min(events.len());
                session.step(&mut p, events, end);
            }
            let digest = session.digest();
            let report = session.finish();
            drop(p);
            build_s += (t1 - t0).as_secs_f64();
            replay_s += t1.elapsed().as_secs_f64();
            let (mut a, mut b) = (Digest::default(), Digest::default());
            a.coverage(&report);
            b.coverage(&fin.report);
            if a != b || digest != fin.digest {
                return Err(format!(
                    "tenant {} replays differently outside the service",
                    fin.tenant
                ));
            }
        }
        let batch_s = clocks.batch.secs();
        let apply_s = clocks.next.secs();
        Ok((
            open_s,
            Replica {
                build_s,
                prefetcher_s: batch_s - apply_s,
                apply_s,
                stage_s: replay_s - batch_s,
                triggers: clocks.coverage_triggers(),
                phases_s: t_phases.elapsed().as_secs_f64(),
            },
        ))
    }
}
