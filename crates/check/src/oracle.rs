//! The three oracle tiers.
//!
//! Tier 1 opens with the **batch-parity differential**: each engine's
//! one event loop must produce byte-for-byte the same coverage and
//! timing reports in one-event steps as in larger ones, at every
//! checked batch size and across warmup boundaries that do not divide
//! the batch. Then the **cross-engine differential**: the
//! coverage and timing engines evolve the L1, the prefetch buffer, and
//! the prefetcher through *identical* sequences — only the clock
//! differs — so wherever their metrics overlap they must agree exactly:
//! demand-miss counts, covered misses, metadata traffic, and the final
//! `knows_line` metadata state. A one-core multicore run must further be
//! bit-identical to the single-core timing engine.
//!
//! Tier 2 (**model-based**, [`check_reference_models`]): the same trace
//! deterministically derives an op stream that drives each optimized
//! structure and its [`crate::reference`] model side by side, comparing
//! every return value. Op choice and operands come only from the event
//! index and line address, so shrinking the trace shrinks the op
//! stream. Beyond the memory-system structures, this tier also steps
//! the optimized rival prefetchers (Pangloss, Triangel) against their
//! obviously-correct reference models over tiny folded configurations,
//! comparing every trigger's predictions, replacements, metadata
//! membership, and the final counters.
//!
//! Tier 3 (**invariant audit**, inside [`check_system_trace`]): one
//! telemetry-observed coverage run checks flight-recorder bucket
//! conservation against engine totals, ring chronology, serialization
//! round-trips, per-epoch counter monotonicity, and prefetch-buffer
//! lifetime conservation (every fill is eventually hit, evicted,
//! discarded, or left resident — exactly once).
//!
//! Tier 4 (**service equivalence**, inside [`check_system_trace`]): a
//! multi-tenant sharded `domino-service` run over interleaved rotations
//! of the trace must be indistinguishable, per tenant, from independent
//! single-tenant runs — same coverage report bytes, same decision
//! digest, same final metadata membership. This is the isolation and
//! linearity anchor for the metadata service.
//!
//! Tier 5 (**observability audit**, inside [`check_system_trace`]): an
//! *armed* service run (metrics rings + span tracing on) audited
//! against the plane's own invariants — span chronology (submit ≤
//! enqueue ≤ dequeue ≤ step ≤ reply), deterministic-sampler membership
//! and exact sampled-count prediction, interval-counter conservation
//! (ring totals == final shard stats), and serialization round-trips
//! of both record formats.
//!
//! Tier 6 (**stream parity**, [`check_stream_parity`]): the trace is
//! written to `DMNOTRC1` files (raw and Sequitur-compressed) and
//! replayed through the double-buffered file source into both engines;
//! reports and decision digests must be byte-identical to the
//! cached-slice runs at every checked batch size, with a file chunk
//! size that divides neither the batch nor the trace.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use domino::eit::{Eit, EitConfig};
use domino_mem::cache::{CacheConfig, Replacement, SetAssocCache};
use domino_mem::interface::{CollectSink, Prefetcher, TriggerEvent};
use domino_mem::mshr::MshrFile;
use domino_mem::prefetch_buffer::PrefetchBuffer;
use domino_prefetchers::{Pangloss, PanglossConfig, Triangel, TriangelConfig};
use domino_service::{BatchRequest, MetadataService, ObsConfig, OverloadPolicy, ServiceConfig};
use domino_sim::config::SystemConfig;
use domino_sim::engine::{
    run_coverage, run_coverage_observed, run_coverage_session, run_coverage_streamed,
    run_coverage_streamed_session, run_coverage_with_batch,
};
use domino_sim::multicore::run_multicore;
use domino_sim::roster::System;
use domino_sim::timing::{run_timing, run_timing_streamed, run_timing_with_batch};
use domino_telemetry::trace::{TraceFile, TraceMeta};
use domino_telemetry::{RingFile, SpanFile, SpanSampler, Telemetry};
use domino_trace::addr::{LineAddr, LINE_BYTES};
use domino_trace::event::AccessEvent;
use domino_trace::stream::{write_trace_file, Codec, FileSource};

use crate::reference::{
    RefTriangelParams, ReferenceBuffer, ReferenceCache, ReferenceEit, ReferenceMshr,
    ReferencePangloss, ReferenceTriangel,
};

/// Prefetch degree used for every checked system.
pub const DEGREE: usize = 4;

/// Flight-recorder ring capacity used by the invariant audit; small so
/// campaign traces wrap it many times and chronology bugs surface.
const RING_CAPACITY: usize = 128;

/// One oracle failure: which oracle tripped and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable oracle name (`cross_engine`, `eit_model`, ...).
    pub oracle: &'static str,
    /// Human-readable mismatch description.
    pub detail: String,
    /// Batch size under which the violation manifested, if the failing
    /// oracle is batch-sensitive. Recorded in the reproducer so replay
    /// and shrinking rerun under the exact same chunking.
    pub batch: Option<u32>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)?;
        if let Some(b) = self.batch {
            write!(f, " (batch {b})")?;
        }
        Ok(())
    }
}

fn violation(oracle: &'static str, detail: String) -> Violation {
    Violation {
        oracle,
        detail,
        batch: None,
    }
}

macro_rules! ensure_eq {
    ($oracle:expr, $left:expr, $right:expr, $($what:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(violation(
                $oracle,
                format!("{}: {:?} != {:?}", format_args!($($what)*), l, r),
            ));
        }
    }};
}

/// Batch sizes the batch-parity oracle exercises: one that is not
/// a divisor of anything interesting (odd, smaller than most traces)
/// and the production default.
pub const CHECKED_BATCHES: [u32; 2] = [7, 64];

/// Runs every oracle that involves a prefetching system on `trace`.
///
/// The batch-parity tier runs first: it owns every step-size bug by
/// construction, so a chunking defect is always reported under its name
/// even when downstream oracles (which run at the ambient batch size)
/// would also trip over it.
pub fn check_system_trace(sys: System, trace: &[AccessEvent]) -> Result<(), Violation> {
    batch_parity(sys, trace)?;
    cross_engine(sys, trace)?;
    multicore_equivalence(sys, trace)?;
    invariant_audit(sys, trace)?;
    service_equivalence(sys, trace)?;
    observability_audit(sys, trace)?;
    check_stream_parity(sys, trace)
}

/// Runs the system-independent reference-model differentials on the op
/// stream derived from `trace`.
pub fn check_reference_models(trace: &[AccessEvent]) -> Result<(), Violation> {
    eit_model(trace)?;
    mshr_model(trace)?;
    buffer_model(trace)?;
    cache_model(trace)?;
    pangloss_model(trace)?;
    triangel_model(trace)
}

/// Every oracle: tier 1 and 3 for `sys`, then the tier-2 models.
pub fn check_trace(sys: System, trace: &[AccessEvent]) -> Result<(), Violation> {
    check_system_trace(sys, trace)?;
    check_reference_models(trace)
}

/// Tier 1: each engine in one-event steps vs larger steps.
///
/// Every report a figure can print must be *byte-for-byte* identical
/// between `batch == 1` and any larger batch, so the comparison is on the
/// full `Debug` rendering of each report — `f64` Debug is
/// shortest-roundtrip and therefore injective, making string equality
/// equivalent to bit equality of every field.
fn batch_parity(sys: System, trace: &[AccessEvent]) -> Result<(), Violation> {
    for batch in CHECKED_BATCHES {
        check_batched_parity(sys, trace, batch)?;
    }
    Ok(())
}

/// Compares one-event and `batch`-event steps of the coverage and timing
/// engines on `trace`. Public so `--replay` can rerun a reproducer under
/// exactly the recorded batch size.
pub fn check_batched_parity(
    sys: System,
    trace: &[AccessEvent],
    batch: u32,
) -> Result<(), Violation> {
    const O: &str = "batch_parity";
    let cfg = SystemConfig::paper();
    let label = sys.label();
    let mismatch = |engine: &str, warmup: usize, one: String, batched: String| Violation {
        oracle: O,
        detail: format!(
            "{label}: {engine} (warmup {warmup}) diverges at batch {batch}:\n\
             batch 1: {one}\n\
             batched: {batched}"
        ),
        batch: Some(batch),
    };
    // Two warmups: none, and one that is deliberately not a batch
    // multiple so the warmup-boundary step clamp is exercised.
    for warmup in [0, trace.len() / 3] {
        let run = |b: u32| {
            let mut p = sys.build(DEGREE);
            format!(
                "{:?}",
                run_coverage_with_batch(&cfg, trace, p.as_mut(), warmup, b)
            )
        };
        let (one, batched) = (run(1), run(batch));
        if one != batched {
            return Err(mismatch("coverage", warmup, one, batched));
        }
        let run = |b: u32| {
            let mut p = sys.build(DEGREE);
            format!(
                "{:?}",
                run_timing_with_batch(&cfg, trace, p.as_mut(), warmup, b)
            )
        };
        let (one, batched) = (run(1), run(batch));
        if one != batched {
            return Err(mismatch("timing", warmup, one, batched));
        }
    }
    Ok(())
}

/// Chunk size the stream-parity oracle writes its trace files with:
/// prime, so file chunks straddle every batch boundary and (for any
/// trace longer than 37 events) never divide the trace.
const STREAM_CHUNK_EVENTS: u32 = 37;

/// Tier 6: **stream parity** — replaying the trace from a `DMNOTRC1`
/// file through the double-buffered [`FileSource`] must be byte-for-byte
/// identical to the cached-slice engines, for both the raw and the
/// Sequitur-compressed codec, across the checked batch sizes and a
/// warmup that divides neither the batch nor the file chunk. Compares
/// the decision digest (coverage) and the full `Debug` report rendering
/// of both engines, like the batch-parity tier.
pub fn check_stream_parity(sys: System, trace: &[AccessEvent]) -> Result<(), Violation> {
    const O: &str = "stream_parity";
    let cfg = SystemConfig::paper();
    let label = sys.label();
    let io_err = |what: &str, e: &dyn fmt::Display| violation(O, format!("{label}: {what}: {e}"));
    let dir = std::env::temp_dir();
    for codec in [Codec::Raw, Codec::Sequitur] {
        let file = TempFile(dir.join(format!(
            "domino-check-stream-{}-{}-{}-{}.dmno",
            std::process::id(),
            STREAM_FILE_SEQ.fetch_add(1, Ordering::Relaxed),
            label.replace([' ', '/'], "_"),
            codec.label()
        )));
        write_trace_file(&file.0, trace, STREAM_CHUNK_EVENTS, codec)
            .map_err(|e| io_err("write trace file", &e))?;
        stream_parity_one_file(sys, trace, &cfg, &file.0, codec)?;
    }
    Ok(())
}

/// Numbers the stream-parity trace files of one process, so concurrent
/// checks (the test harness runs them on sibling threads) never share a
/// path.
static STREAM_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A temporary file deleted on drop, so an early return cannot leak it.
struct TempFile(std::path::PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// One codec's worth of [`check_stream_parity`]: every checked batch,
/// coverage (digest + report) and timing (report), warmed and unwarmed.
fn stream_parity_one_file(
    sys: System,
    trace: &[AccessEvent],
    cfg: &SystemConfig,
    path: &std::path::Path,
    codec: Codec,
) -> Result<(), Violation> {
    const O: &str = "stream_parity";
    let label = sys.label();
    let open = || {
        FileSource::open(path).map_err(|e| {
            violation(
                O,
                format!("{label}: open {} ({codec:?}): {e}", path.display()),
            )
        })
    };
    let stream_err =
        |e: &dyn fmt::Display| violation(O, format!("{label}: streamed run ({codec:?}): {e}"));
    for batch in CHECKED_BATCHES {
        let mismatch = |engine: &str, warmup: usize, cached: String, streamed: String| Violation {
            oracle: O,
            detail: format!(
                "{label}: {engine} ({codec:?} codec, warmup {warmup}) diverges at batch {batch}:\n\
                 cached:   {cached}\n\
                 streamed: {streamed}"
            ),
            batch: Some(batch),
        };
        // Coverage with decision digest (warmup 0 — the digest session
        // has no warmup notion, matching run_coverage_session).
        let mut p = sys.build(DEGREE);
        let (want_report, want_digest) =
            run_coverage_session(cfg, trace, p.as_mut(), batch as usize);
        let mut source = open()?;
        let mut p = sys.build(DEGREE);
        let (got_report, got_digest) =
            run_coverage_streamed_session(cfg, &mut source, p.as_mut(), batch as usize)
                .map_err(|e| stream_err(&e))?;
        if want_digest != got_digest {
            return Err(mismatch(
                "coverage digest",
                0,
                format!("{want_digest:#018x}"),
                format!("{got_digest:#018x}"),
            ));
        }
        let (want, got) = (format!("{want_report:?}"), format!("{got_report:?}"));
        if want != got {
            return Err(mismatch("coverage", 0, want, got));
        }
        // Both engines across the warmup boundary.
        for warmup in [0, trace.len() / 3] {
            let mut p = sys.build(DEGREE);
            let want = format!(
                "{:?}",
                run_coverage_with_batch(cfg, trace, p.as_mut(), warmup, batch)
            );
            let mut source = open()?;
            let mut p = sys.build(DEGREE);
            let got = run_coverage_streamed(cfg, &mut source, p.as_mut(), warmup, batch as usize)
                .map_err(|e| stream_err(&e))?;
            let got = format!("{got:?}");
            if want != got {
                return Err(mismatch("coverage", warmup, want, got));
            }
            let mut p = sys.build(DEGREE);
            let want = format!(
                "{:?}",
                run_timing_with_batch(cfg, trace, p.as_mut(), warmup, batch)
            );
            let mut source = open()?;
            let mut p = sys.build(DEGREE);
            let got = run_timing_streamed(cfg, &mut source, p.as_mut(), warmup, batch as usize)
                .map_err(|e| stream_err(&e))?;
            let got = format!("{got:?}");
            if want != got {
                return Err(mismatch("timing", warmup, want, got));
            }
        }
    }
    Ok(())
}

/// Tier 1: coverage vs timing on the shared metric surface.
fn cross_engine(sys: System, trace: &[AccessEvent]) -> Result<(), Violation> {
    const O: &str = "cross_engine";
    let cfg = SystemConfig::paper();
    let mut cov_p = sys.build(DEGREE);
    let cov = run_coverage(&cfg, trace, cov_p.as_mut());
    let mut tim_p = sys.build(DEGREE);
    let tim = run_timing(&cfg, trace, tim_p.as_mut());
    let label = sys.label();
    ensure_eq!(
        O,
        cov.covered,
        tim.timely_hits + tim.late_hits,
        "{label}: covered misses vs timely+late buffer hits"
    );
    ensure_eq!(
        O,
        cov.baseline_misses,
        tim.timely_hits + tim.late_hits + tim.full_misses,
        "{label}: baseline misses vs timing miss classes"
    );
    ensure_eq!(
        O,
        cov.meta_read_blocks * LINE_BYTES,
        tim.traffic.metadata_read,
        "{label}: metadata read traffic (bytes)"
    );
    ensure_eq!(
        O,
        cov.meta_write_blocks * LINE_BYTES,
        tim.traffic.metadata_write,
        "{label}: metadata write traffic (bytes)"
    );
    // Same trigger sequence → same learned metadata. `knows_line` is
    // pure, so probing every distinct line compares the final states.
    for ev in trace {
        let line = ev.line();
        ensure_eq!(
            O,
            cov_p.knows_line(line),
            tim_p.knows_line(line),
            "{label}: knows_line({}) after both runs",
            line.raw()
        );
    }
    Ok(())
}

/// Tier 1: `run_multicore` with one core must reproduce `run_timing`
/// bit-for-bit (the pollution term vanishes at one core).
fn multicore_equivalence(sys: System, trace: &[AccessEvent]) -> Result<(), Violation> {
    const O: &str = "multicore_equivalence";
    let cfg = SystemConfig {
        cores: 1,
        ..SystemConfig::paper()
    };
    let mut p = sys.build(DEGREE);
    let single = run_timing(&cfg, trace, p.as_mut());
    let multi = run_multicore(&cfg, vec![trace.to_vec()], vec![sys.build(DEGREE)]);
    let core = &multi.per_core[0];
    let label = sys.label();
    ensure_eq!(O, single.name, core.name, "{label}: report name");
    ensure_eq!(
        O,
        single.instructions,
        core.instructions,
        "{label}: instructions"
    );
    ensure_eq!(
        O,
        (single.timely_hits, single.late_hits, single.full_misses),
        (core.timely_hits, core.late_hits, core.full_misses),
        "{label}: miss classification"
    );
    ensure_eq!(
        O,
        single.total_ns.to_bits(),
        core.total_ns.to_bits(),
        "{label}: total_ns ({} vs {})",
        single.total_ns,
        core.total_ns
    );
    ensure_eq!(
        O,
        (
            single.dependent_stall_ns.to_bits(),
            single.independent_stall_ns.to_bits()
        ),
        (
            core.dependent_stall_ns.to_bits(),
            core.independent_stall_ns.to_bits()
        ),
        "{label}: stall breakdown"
    );
    ensure_eq!(
        O,
        (
            single.traffic.demand,
            single.traffic.prefetch,
            single.traffic.metadata_read,
            single.traffic.metadata_write
        ),
        (
            core.traffic.demand,
            core.traffic.prefetch,
            core.traffic.metadata_read,
            core.traffic.metadata_write
        ),
        "{label}: traffic by category"
    );
    Ok(())
}

/// Tier 3: one observed coverage run, audited through the telemetry
/// hooks the engines already carry.
fn invariant_audit(sys: System, trace: &[AccessEvent]) -> Result<(), Violation> {
    let cfg = SystemConfig::paper();
    let epoch = (trace.len() as u64 / 8).max(1);
    let mut tel = Telemetry::with_epoch(epoch);
    tel.enable_trace(RING_CAPACITY);
    let mut p = sys.build(DEGREE);
    let report = run_coverage_observed(&cfg, trace, p.as_mut(), 0, &mut tel);
    let rec = tel.take_tracer().expect("tracer was enabled");
    let label = sys.label();

    // Bucket conservation: every demand miss lands in exactly one
    // attribution bucket, and the online totals match the engine's.
    let a = rec.attribution();
    if !a.is_conserved() {
        return Err(violation(
            "attribution_conservation",
            format!("{label}: buckets {a:?} do not sum to demand misses"),
        ));
    }
    ensure_eq!(
        "attribution_totals",
        a.demand_misses,
        report.baseline_misses,
        "{label}: recorder demand misses vs engine baseline misses"
    );
    ensure_eq!(
        "attribution_totals",
        a.covered + a.late,
        report.covered,
        "{label}: recorder covered(+late) vs engine covered"
    );

    // Ring chronology: the coverage engine stamps every record with the
    // access index, so oldest-first iteration must be nondecreasing.
    let mut last = 0u64;
    for (i, ev) in rec.events().enumerate() {
        if ev.time < last {
            return Err(violation(
                "flight_recorder_chronology",
                format!(
                    "{label}: ring event {i} at time {} after time {last} \
                     (recorded {}, wrapped {})",
                    ev.time,
                    rec.recorded(),
                    rec.wrapped()
                ),
            ));
        }
        last = ev.time;
    }

    // Serialization round-trip: bytes → TraceFile → verify, and the
    // replayed attribution must match the online one when no event was
    // lost to ring wrap.
    let meta = TraceMeta {
        workload: "checker".into(),
        component: label.clone(),
        kind: "coverage".into(),
        events: trace.len() as u64,
        seed: 0,
        warmup: 0,
    };
    let bytes = rec.to_bytes(&meta);
    let file = TraceFile::from_bytes(&bytes)
        .map_err(|e| violation("trace_roundtrip", format!("{label}: parse failed: {e}")))?;
    file.verify()
        .map_err(|e| violation("trace_roundtrip", format!("{label}: verify failed: {e}")))?;
    ensure_eq!(
        "trace_roundtrip",
        (file.recorded, file.events.len()),
        (rec.recorded(), rec.len()),
        "{label}: round-tripped event counts"
    );
    if !file.wrapped() {
        ensure_eq!(
            "trace_roundtrip",
            file.replayed_attribution(),
            a,
            "{label}: replayed vs online attribution"
        );
    }

    // Epoch series: every emitted counter is cumulative, so every column
    // must be monotonically nondecreasing across epochs.
    let run = tel.finish(|_| {});
    for (col, field) in run.fields.iter().enumerate() {
        let mut prev = 0u64;
        for (row_idx, row) in run.epochs.iter().enumerate() {
            let v = row[col];
            if v < prev {
                return Err(violation(
                    "epoch_monotonicity",
                    format!(
                        "{label}: counter {field} falls from {prev} to {v} \
                         at epoch row {row_idx}"
                    ),
                ));
            }
            prev = v;
        }
    }

    // Buffer lifetime conservation. Each insert is a duplicate or
    // creates a resident entry; entries leave by demand hit, capacity
    // eviction, or stream discard; leftovers count as overpredictions.
    // With warmup 0: inserted == duplicates + hits + overpredictions.
    if let Some(final_row) = run.epochs.last() {
        let col = |name: &str| -> Option<u64> {
            run.fields
                .iter()
                .position(|f| f == name)
                .map(|i| final_row[i])
        };
        match (
            col("buffer.inserted"),
            col("buffer.duplicate_inserts"),
            col("buffer.hits"),
        ) {
            (Some(inserted), Some(duplicates), Some(hits)) => {
                let lhs = i128::from(inserted);
                let rhs =
                    i128::from(duplicates) + i128::from(hits) + i128::from(report.overpredictions);
                if lhs != rhs {
                    return Err(violation(
                        "buffer_conservation",
                        format!(
                            "{label}: inserted {inserted} != duplicates {duplicates} \
                             + hits {hits} + overpredictions {} ({lhs} vs {rhs})",
                            report.overpredictions
                        ),
                    ));
                }
            }
            _ => {
                return Err(violation(
                    "buffer_conservation",
                    format!("{label}: buffer counters missing from telemetry row"),
                ));
            }
        }
    }
    Ok(())
}

/// Tier 4: the sharded multi-tenant metadata service vs independent
/// single-tenant runs.
///
/// Four tenants replay rotations of the checker trace through a
/// two-shard service, interleaved in small non-divisor batches under the
/// blocking policy. Every tenant must then be indistinguishable from a
/// lone `run_coverage_session` over its own stream: same coverage report
/// (full `Debug` rendering, so bit equality), same decision digest, and
/// same final metadata membership over every line the tenant touched.
/// Any cross-tenant leak, shard-scheduling dependence, or batching
/// defect in the service layer breaks one of the three.
fn service_equivalence(sys: System, trace: &[AccessEvent]) -> Result<(), Violation> {
    const O: &str = "service_equivalence";
    if trace.is_empty() {
        return Ok(());
    }
    const TENANTS: usize = 4;
    /// Deliberately not a divisor of anything, so request boundaries
    /// land mid-everything.
    const REQUEST_BATCH: usize = 17;
    let label = sys.label();
    let len = trace.len();
    // Tenant t replays the trace rotated by t quarters: every stream
    // touches the same lines (maximal aliasing pressure) while being a
    // genuinely different sequence.
    let streams: Vec<Arc<[AccessEvent]>> = (0..TENANTS)
        .map(|t| {
            let cut = t * len / TENANTS;
            let mut v = Vec::with_capacity(len);
            v.extend_from_slice(&trace[cut..]);
            v.extend_from_slice(&trace[..cut]);
            v.into()
        })
        .collect();
    let service = MetadataService::start(ServiceConfig {
        shards: 2,
        queue_depth: 4,
        policy: OverloadPolicy::Block,
        degree: DEGREE,
        system: SystemConfig::paper(),
        ..ServiceConfig::default()
    });
    {
        let client = service.client();
        let mut cursor = [0usize; TENANTS];
        let mut live = TENANTS;
        while live > 0 {
            live = 0;
            for (t, cursor) in cursor.iter_mut().enumerate() {
                if *cursor >= len {
                    continue;
                }
                let start = *cursor;
                let end = (start + REQUEST_BATCH).min(len);
                *cursor = end;
                if end < len {
                    live += 1;
                }
                client.submit(BatchRequest {
                    tenant: t as u64,
                    system: sys,
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
    let result = service.shutdown();
    for (t, stream) in streams.iter().enumerate() {
        let mut reference = sys.build(DEGREE);
        let (ref_report, ref_digest) =
            run_coverage_session(&SystemConfig::paper(), stream, reference.as_mut(), 64);
        let Some(fin) = result.tenant(t as u64) else {
            return Err(violation(
                O,
                format!("{label}: tenant {t} did not survive to a single final"),
            ));
        };
        ensure_eq!(
            O,
            (fin.evicted, fin.gap_events, fin.resets),
            (false, 0, 0),
            "{label}: tenant {t} ran without pressure events"
        );
        ensure_eq!(
            O,
            fin.digest,
            ref_digest,
            "{label}: tenant {t} decision digest vs single-tenant run"
        );
        ensure_eq!(
            O,
            format!("{:?}", fin.report),
            format!("{ref_report:?}"),
            "{label}: tenant {t} coverage report vs single-tenant run"
        );
        for ev in stream.iter() {
            let line = ev.line();
            ensure_eq!(
                O,
                fin.prefetcher.knows_line(line),
                reference.knows_line(line),
                "{label}: tenant {t} knows_line({}) vs single-tenant run",
                line.raw()
            );
        }
    }
    Ok(())
}

/// Tier 5: the observability plane audited against its own invariants.
///
/// One *armed* service run (2 shards, blocking policy, span rate 2,
/// deliberately tiny rings so long traces wrap them) over rotated
/// tenant streams, then:
///
/// - **Span chronology**: every stored span satisfies
///   submit ≤ enqueue ≤ dequeue ≤ step ≤ reply.
/// - **Sampler determinism**: the number of recorded spans equals the
///   count predicted by replaying the pure sampling function over the
///   exact (tenant, batch-start) pairs the load submitted, and every
///   stored span is a member the sampler would have selected.
/// - **Interval-counter conservation**: the metrics ring's unwrapped
///   totals equal the shard's final stats for every shared counter —
///   sampling on a cadence must lose nothing by shutdown.
/// - **Round-trips**: both serialized forms (`DMNOMTR1`, `DMNOSPN1`)
///   parse back and pass their own `verify()`.
fn observability_audit(sys: System, trace: &[AccessEvent]) -> Result<(), Violation> {
    const O: &str = "observability_audit";
    if trace.is_empty() {
        return Ok(());
    }
    const TENANTS: usize = 3;
    const REQUEST_BATCH: usize = 13;
    const SPAN_RATE: u32 = 2;
    const SPAN_SEED: u64 = 0x0B5E7;
    let label = sys.label();
    let len = trace.len();
    let streams: Vec<Arc<[AccessEvent]>> = (0..TENANTS)
        .map(|t| {
            let cut = t * len / TENANTS;
            let mut v = Vec::with_capacity(len);
            v.extend_from_slice(&trace[cut..]);
            v.extend_from_slice(&trace[..cut]);
            v.into()
        })
        .collect();
    let sampler = SpanSampler::new(SPAN_RATE, SPAN_SEED);
    let service = MetadataService::start(ServiceConfig {
        shards: 2,
        queue_depth: 4,
        policy: OverloadPolicy::Block,
        degree: DEGREE,
        system: SystemConfig::paper(),
        obs: Some(ObsConfig {
            interval_events: 32,
            ring_rows: 8,
            span_rate: SPAN_RATE,
            span_seed: SPAN_SEED,
            span_capacity: 1024,
            live_dir: None,
        }),
        ..ServiceConfig::default()
    });
    // Predicted sampled-span count per shard, from the pure sampling
    // function over the exact (tenant, batch-start) pairs submitted.
    let mut predicted = [0u64; 2];
    {
        let client = service.client();
        let mut cursor = [0usize; TENANTS];
        let mut live = TENANTS;
        while live > 0 {
            live = 0;
            for (t, cursor) in cursor.iter_mut().enumerate() {
                if *cursor >= len {
                    continue;
                }
                let start = *cursor;
                let end = (start + REQUEST_BATCH).min(len);
                *cursor = end;
                if end < len {
                    live += 1;
                }
                if sampler.sampled(t as u64, start as u64) {
                    predicted[client.shard_of(t as u64)] += 1;
                }
                client.submit(BatchRequest {
                    tenant: t as u64,
                    system: sys,
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
    let result = service.shutdown();
    for shard in &result.shards {
        let stats = &shard.stats;
        let Some(obs) = &shard.obs else {
            return Err(violation(
                O,
                format!(
                    "{label}: shard {} armed run produced no obs outcome",
                    stats.shard
                ),
            ));
        };
        // Span chronology and sampler membership, pre-serialization.
        for span in obs.spans.spans() {
            if !span.chronological() {
                return Err(violation(
                    O,
                    format!(
                        "{label}: shard {} span tenant {} seq {} out of order: \
                         submit {} enqueue {} dequeue {} step {} reply {}",
                        stats.shard,
                        span.tenant,
                        span.seq,
                        span.submit_ns,
                        span.enqueue_ns,
                        span.dequeue_ns,
                        span.step_ns,
                        span.reply_ns
                    ),
                ));
            }
            if !sampler.sampled(span.tenant, span.seq) {
                return Err(violation(
                    O,
                    format!(
                        "{label}: shard {} stored span (tenant {}, seq {}) the \
                         deterministic sampler would not have selected",
                        stats.shard, span.tenant, span.seq
                    ),
                ));
            }
        }
        ensure_eq!(
            O,
            obs.spans.recorded(),
            predicted[stats.shard],
            "{label}: shard {} recorded spans vs pure-sampler prediction",
            stats.shard
        );
        // Interval-counter conservation: cadence sampling plus the
        // drain-time tail sample must conserve every shared counter.
        let total = |name: &str| obs.ring.column(name).map(|c| obs.ring.totals()[c]);
        for (name, expect) in [
            ("events", stats.events),
            ("batches", stats.batches),
            ("shed", stats.shed),
            ("gap_events", stats.gap_events),
            ("evictions", stats.evictions),
            ("resets", stats.resets),
        ] {
            ensure_eq!(
                O,
                total(name),
                Some(expect),
                "{label}: shard {} ring total {name} vs final stats",
                stats.shard
            );
        }
        // Serialization round-trips: both record formats parse back and
        // pass their own verifiers, and the ring file conserves totals.
        let source = format!("shard-{}", stats.shard);
        let ring_file = RingFile::from_bytes(&obs.ring.to_bytes(&source, 32))
            .map_err(|e| violation(O, format!("{label}: ring round-trip: {e}")))?;
        ring_file
            .verify()
            .map_err(|e| violation(O, format!("{label}: ring verify: {e}")))?;
        ensure_eq!(
            O,
            ring_file.totals,
            obs.ring.totals().to_vec(),
            "{label}: shard {} serialized ring totals",
            stats.shard
        );
        let span_file = SpanFile::from_bytes(&obs.spans.to_bytes(&source, sampler))
            .map_err(|e| violation(O, format!("{label}: span round-trip: {e}")))?;
        span_file
            .verify()
            .map_err(|e| violation(O, format!("{label}: span verify: {e}")))?;
        ensure_eq!(
            O,
            span_file.recorded,
            obs.spans.recorded(),
            "{label}: shard {} serialized span count",
            stats.shard
        );
    }
    Ok(())
}

/// Tier 2: flat-slab EIT vs the nested-`Vec` reference.
///
/// Tags fold into a 13-line pool over a 3-row table so refreshes,
/// promotions, and capacity evictions all happen constantly.
fn eit_model(trace: &[AccessEvent]) -> Result<(), Violation> {
    const O: &str = "eit_model";
    let mut flat = Eit::new(EitConfig {
        rows: 3,
        super_entries_per_row: 2,
        entries_per_super: 3,
    });
    let mut model = ReferenceEit::new(3, 2, 3);
    for (i, pair) in trace.windows(2).enumerate() {
        let tag = LineAddr::new(pair[0].line().raw() % 13);
        let next = LineAddr::new(pair[1].line().raw() % 13);
        let evicted_flat = flat.update(tag, next, i as u64);
        let evicted_model = model.update(tag, next, i as u64);
        ensure_eq!(
            O,
            evicted_flat,
            evicted_model,
            "op {i}: update({}, {}) eviction",
            tag.raw(),
            next.raw()
        );
        if i % 5 == 0 {
            let model_entries = model.lookup(next);
            let flat_entries = flat.lookup(next).map(|se| se.entries().to_vec());
            ensure_eq!(
                O,
                flat_entries,
                model_entries,
                "op {i}: lookup({}) entries",
                next.raw()
            );
        }
        if i % 7 == 0 {
            ensure_eq!(
                O,
                flat.probe(tag),
                model.probe(tag),
                "op {i}: probe({})",
                tag.raw()
            );
        }
    }
    Ok(())
}

/// Tier 2: min-heap MSHR file vs the linear-scan reference. Completion
/// times are integer offsets of the simulated clock, so retirement-
/// boundary ties (`done_at == now`) occur by construction.
fn mshr_model(trace: &[AccessEvent]) -> Result<(), Violation> {
    const O: &str = "mshr_model";
    let mut heap = MshrFile::new(4);
    let mut model = ReferenceMshr::new(4);
    let mut now = 0.0f64;
    for (i, ev) in trace.iter().enumerate() {
        let line = LineAddr::new(ev.line().raw() % 11);
        let done = now + (ev.line().raw() % 7) as f64;
        match i % 5 {
            0..=2 => {
                ensure_eq!(
                    O,
                    heap.allocate(line, done),
                    model.allocate(line, done),
                    "op {i}: allocate({}, {done}) at now {now}",
                    line.raw()
                );
            }
            3 => {
                ensure_eq!(
                    O,
                    heap.completion_of(line),
                    model.completion_of(line),
                    "op {i}: completion_of({})",
                    line.raw()
                );
            }
            _ => {
                heap.retire_until(now);
                model.retire_until(now);
                ensure_eq!(
                    O,
                    heap.earliest_completion(),
                    model.earliest_completion(),
                    "op {i}: earliest completion after retire_until({now})"
                );
            }
        }
        ensure_eq!(
            O,
            heap.in_flight(),
            model.in_flight(),
            "op {i}: in-flight count at now {now}"
        );
        if i % 3 == 0 {
            now += 1.0;
        }
    }
    ensure_eq!(O, heap.counters(), model.counters(), "final counters");
    Ok(())
}

/// Tier 2: production prefetch buffer vs the `Vec` reference, compared
/// on every outcome, occupancy, and the lifetime statistics.
fn buffer_model(trace: &[AccessEvent]) -> Result<(), Violation> {
    const O: &str = "buffer_model";
    let mut prod = PrefetchBuffer::new(4);
    let mut model = ReferenceBuffer::new(4);
    for (i, ev) in trace.iter().enumerate() {
        let line = LineAddr::new(ev.line().raw() % 9);
        let stream = Some((i % 3) as u32);
        match i % 4 {
            0 | 1 => {
                ensure_eq!(
                    O,
                    prod.insert(line, i as f64, stream),
                    model.insert(line, i as f64, stream),
                    "op {i}: insert({})",
                    line.raw()
                );
            }
            2 => {
                let a = prod
                    .take(line)
                    .map(|e| (e.line, e.ready_at.to_bits(), e.stream));
                let b = model
                    .take(line)
                    .map(|e| (e.line, e.ready_at.to_bits(), e.stream));
                ensure_eq!(O, a, b, "op {i}: take({})", line.raw());
            }
            _ => {
                ensure_eq!(
                    O,
                    prod.contains(line),
                    model.contains(line),
                    "op {i}: contains({})",
                    line.raw()
                );
                if i % 8 == 3 {
                    let s = (i % 3) as u32;
                    ensure_eq!(
                        O,
                        prod.discard_stream(s),
                        model.discard_stream(s),
                        "op {i}: discard_stream({s})"
                    );
                }
            }
        }
        ensure_eq!(O, prod.len(), model.len(), "op {i}: occupancy");
    }
    let (p, m) = (prod.stats(), model.stats());
    ensure_eq!(
        O,
        (
            p.inserted,
            p.hits,
            p.evicted_unused,
            p.discarded_unused,
            p.duplicate_inserts
        ),
        (
            m.inserted,
            m.hits,
            m.evicted_unused,
            m.discarded_unused,
            m.duplicate_inserts
        ),
        "final lifetime statistics"
    );
    Ok(())
}

/// Tier 2: flat set-associative cache vs the per-set-`Vec` reference,
/// across all three replacement policies.
fn cache_model(trace: &[AccessEvent]) -> Result<(), Violation> {
    const O: &str = "cache_model";
    for replacement in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
        let config = CacheConfig {
            size_bytes: 4 * 2 * LINE_BYTES,
            ways: 2,
            replacement,
        };
        let pool = (config.sets() * config.ways * 2) as u64;
        let mut flat = SetAssocCache::new(config);
        let mut model = ReferenceCache::new(config);
        for (i, ev) in trace.iter().enumerate() {
            let line = LineAddr::new(ev.line().raw() % pool);
            match (ev.line().raw() ^ i as u64) % 10 {
                0..=3 => {
                    ensure_eq!(
                        O,
                        flat.access(line),
                        model.access(line),
                        "{replacement:?} op {i}: access({})",
                        line.raw()
                    );
                }
                4..=7 => {
                    ensure_eq!(
                        O,
                        flat.insert(line),
                        model.insert(line),
                        "{replacement:?} op {i}: insert({})",
                        line.raw()
                    );
                }
                8 => {
                    ensure_eq!(
                        O,
                        flat.invalidate(line),
                        model.invalidate(line),
                        "{replacement:?} op {i}: invalidate({})",
                        line.raw()
                    );
                }
                _ => {
                    ensure_eq!(
                        O,
                        flat.contains(line),
                        model.contains(line),
                        "{replacement:?} op {i}: contains({})",
                        line.raw()
                    );
                }
            }
            ensure_eq!(
                O,
                flat.len(),
                model.len(),
                "{replacement:?} op {i}: occupancy"
            );
        }
        ensure_eq!(
            O,
            flat.hit_miss(),
            model.hit_miss(),
            "{replacement:?}: final hit/miss counters"
        );
    }
    Ok(())
}

/// Compares one trigger's production sink against a reference step:
/// same predicted lines, same replacements, all-immediate requests, and
/// zero off-chip metadata traffic (both rivals are on-chip designs).
fn check_rival_step(
    oracle: &'static str,
    i: usize,
    line: LineAddr,
    sink: &CollectSink,
    predicted: &[LineAddr],
    replaced: &[LineAddr],
) -> Result<(), Violation> {
    let issued: Vec<LineAddr> = sink.requests.iter().map(|r| r.line).collect();
    ensure_eq!(
        oracle,
        issued,
        predicted,
        "op {i}: predictions for {}",
        line.raw()
    );
    ensure_eq!(
        oracle,
        sink.replaced,
        replaced,
        "op {i}: replacements for {}",
        line.raw()
    );
    if let Some(r) = sink
        .requests
        .iter()
        .find(|r| r.delay_trips != 0 || r.stream.is_some())
    {
        return Err(violation(
            oracle,
            format!("op {i}: on-chip rival issued a delayed or stream-tagged request: {r:?}"),
        ));
    }
    ensure_eq!(
        oracle,
        (sink.meta_read_blocks, sink.meta_write_blocks),
        (0u64, 0u64),
        "op {i}: off-chip metadata traffic from an on-chip rival"
    );
    Ok(())
}

/// Collects a prefetcher's counters into an ordered name/value list.
fn collect_counters(p: &dyn Prefetcher) -> Vec<(String, u64)> {
    let mut counters = Vec::new();
    let mut sink = |name: &str, value: u64| counters.push((name.to_string(), value));
    p.emit_counters(&mut sink);
    counters
}

/// Tier 2: the slab-backed Pangloss vs the positional-`Vec` reference.
///
/// A tiny table (2 × 2, fan-out 2) over lines folded into a 13-line pool
/// keeps every set full and frequency ties constant, so edge and entry
/// victim selection are exercised on every generator family at smoke
/// scale. Every trigger compares predictions, replacements, and
/// `knows_line`; the run ends on a full counter comparison.
fn pangloss_model(trace: &[AccessEvent]) -> Result<(), Violation> {
    const O: &str = "pangloss_model";
    let mut prod = Pangloss::new(PanglossConfig {
        sets: 2,
        ways: 2,
        fanout: 2,
        degree: 2,
    });
    let mut model = ReferencePangloss::new(2, 2, 2, 2);
    let mut sink = CollectSink::new();
    for (i, ev) in trace.iter().enumerate() {
        let line = LineAddr::new(ev.line().raw() % 13);
        let event = if i % 5 == 3 {
            TriggerEvent::prefetch_hit(ev.pc, line)
        } else {
            TriggerEvent::miss(ev.pc, line)
        };
        sink.clear();
        prod.on_trigger(&event, &mut sink);
        let out = model.step(&event);
        check_rival_step(O, i, line, &sink, &out.predicted, &out.replaced)?;
        ensure_eq!(
            O,
            prod.knows_line(line),
            model.knows_line(line),
            "op {i}: knows_line({})",
            line.raw()
        );
        if i % 7 == 0 {
            let probe = LineAddr::new((ev.line().raw() + i as u64) % 13);
            ensure_eq!(
                O,
                prod.knows_line(probe),
                model.knows_line(probe),
                "op {i}: probe knows_line({})",
                probe.raw()
            );
        }
    }
    let expected: Vec<(String, u64)> = model
        .counters()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    ensure_eq!(O, collect_counters(&prod), expected, "final counters");
    Ok(())
}

/// Tier 2: the slab-backed Triangel vs the positional-`Vec` reference.
///
/// Lines fold into an 11-line pool and PCs into 3, with sample-everything
/// and a usefulness threshold of 1, so sampler reuse, the train gate, the
/// timeliness deepening, and history eviction all trip within a smoke
/// trace. Every fifth trigger is a prefetch hit, exercising the
/// miss-only sampler gate.
fn triangel_model(trace: &[AccessEvent]) -> Result<(), Violation> {
    const O: &str = "triangel_model";
    let mut prod = Triangel::new(TriangelConfig {
        hist_sets: 2,
        hist_ways: 2,
        sampler_sets: 2,
        sampler_ways: 2,
        max_pcs: 4,
        train_threshold: 1,
        deep_threshold: 2,
        timely_distance: 4,
        degree: 2,
        sample_shift: 0,
    });
    let mut model = ReferenceTriangel::new(RefTriangelParams {
        hist_sets: 2,
        hist_ways: 2,
        sampler_sets: 2,
        sampler_ways: 2,
        max_pcs: 4,
        train_threshold: 1,
        deep_threshold: 2,
        timely_distance: 4,
        degree: 2,
        sample_shift: 0,
    });
    let mut sink = CollectSink::new();
    for (i, ev) in trace.iter().enumerate() {
        let line = LineAddr::new(ev.line().raw() % 11);
        let pc = domino_trace::addr::Pc::new(ev.pc.raw() % 3);
        let event = if i % 5 == 3 {
            TriggerEvent::prefetch_hit(pc, line)
        } else {
            TriggerEvent::miss(pc, line)
        };
        sink.clear();
        prod.on_trigger(&event, &mut sink);
        let out = model.step(&event);
        check_rival_step(O, i, line, &sink, &out.predicted, &out.replaced)?;
        ensure_eq!(
            O,
            prod.knows_line(line),
            model.knows_line(line),
            "op {i}: knows_line({})",
            line.raw()
        );
        if i % 7 == 0 {
            let probe = LineAddr::new((ev.line().raw() + i as u64) % 11);
            ensure_eq!(
                O,
                prod.knows_line(probe),
                model.knows_line(probe),
                "op {i}: probe knows_line({})",
                probe.raw()
            );
        }
    }
    let expected: Vec<(String, u64)> = model
        .counters()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    ensure_eq!(O, collect_counters(&prod), expected, "final counters");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Generator;

    #[test]
    fn clean_build_passes_every_oracle() {
        // A cheap slice of the full campaign: if the production tree is
        // unmutated, no oracle may fire.
        for g in [Generator::Stride, Generator::PointerChase] {
            let trace = g.generate(7, 600);
            check_reference_models(&trace).expect("reference models agree");
            for sys in [System::Baseline, System::NextLine, System::Domino] {
                check_system_trace(sys, &trace).expect("engines agree");
            }
        }
    }

    #[test]
    fn empty_trace_is_clean() {
        check_trace(System::Domino, &[]).expect("empty trace trips nothing");
    }

    #[test]
    fn violation_displays_oracle_name() {
        let v = violation("cross_engine", "covered mismatch".into());
        assert_eq!(v.to_string(), "[cross_engine] covered mismatch");
        let v = Violation {
            batch: Some(7),
            ..v
        };
        assert_eq!(v.to_string(), "[cross_engine] covered mismatch (batch 7)");
    }

    #[test]
    fn batched_parity_holds_on_adversarial_trace() {
        // Direct exercise of the public parity entry point (the replay
        // path) at a batch that does not divide the trace length.
        let trace = Generator::PointerChase.generate(3, 501);
        for sys in [System::Stms, System::Domino] {
            check_batched_parity(sys, &trace, 7).expect("batch 1 and batch 7 agree");
        }
    }
}
