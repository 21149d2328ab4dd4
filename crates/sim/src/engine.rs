//! Trace-driven coverage engine — the paper's trace-based methodology
//! (§IV-C): in-order trace, no timing, prefetchers trained on the L1-D
//! miss sequence, prefetching into a 32-block buffer near the L1-D.
//!
//! For every access the engine consults the L1; on an L1 miss it checks
//! the prefetch buffer. A buffer hit is a **covered** miss and a
//! `PrefetchHit` triggering event; a buffer miss is an **uncovered** miss
//! and a `Miss` triggering event. Prefetched blocks that are never hit
//! before being evicted or discarded are **overpredictions**, normalised
//! against baseline misses exactly as in Figures 11 and 13.
//!
//! Note the L1's behaviour is identical with and without a prefetcher:
//! prefetches fill only the buffer, and a block enters the L1 on its
//! demand access either way — so "baseline misses" can be counted in the
//! same run.

use domino_mem::cache::SetAssocCache;
use domino_mem::interface::{CollectSink, PrefetchRequest, Prefetcher, TriggerBatch, TriggerEvent};
use domino_mem::prefetch_buffer::{InsertOutcome, PrefetchBuffer};
use domino_sequitur::Histogram;
use domino_telemetry::{CounterSink, FlightRecorder, HistId, Telemetry, DISTANCE_BOUNDS};
use domino_trace::addr::LINE_BYTES;
use domino_trace::event::AccessEvent;
use domino_trace::stream::{EventSource, TraceFileError};

use crate::config::SystemConfig;
use crate::scratch;

/// Result of a coverage run.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Prefetcher display name.
    pub name: String,
    /// Accesses processed.
    pub accesses: u64,
    /// L1 hits (invisible to the prefetcher).
    pub l1_hits: u64,
    /// Demand misses in the baseline sense (buffer hits + real misses).
    pub baseline_misses: u64,
    /// Misses eliminated by prefetching (buffer hits).
    pub covered: u64,
    /// Read-only subset of `baseline_misses` (the paper's Figure 1 is
    /// *read* miss coverage).
    pub read_misses: u64,
    /// Read-only subset of `covered`.
    pub read_covered: u64,
    /// Prefetch requests issued.
    pub prefetches_issued: u64,
    /// Prefetched blocks never used (evicted, discarded, or left over).
    pub overpredictions: u64,
    /// Metadata blocks read from memory.
    pub meta_read_blocks: u64,
    /// Metadata blocks written to memory.
    pub meta_write_blocks: u64,
    /// Lengths of runs of consecutive covered misses ("streams",
    /// Figure 2's definition).
    pub stream_lengths: Histogram,
    /// Sum of `delay_trips` over stream-opening prefetches, for the
    /// Figure 6 timeliness comparison.
    pub first_prefetch_trips: u64,
    /// Number of stream-opening prefetches (delay-trip denominators).
    pub first_prefetch_count: u64,
}

impl CoverageReport {
    /// Covered fraction of baseline misses.
    pub fn coverage(&self) -> f64 {
        if self.baseline_misses == 0 {
            0.0
        } else {
            self.covered as f64 / self.baseline_misses as f64
        }
    }

    /// Covered fraction of *read* misses (Figure 1's metric; writes are a
    /// small minority in the workload models, so this tracks
    /// [`CoverageReport::coverage`] closely).
    pub fn read_coverage(&self) -> f64 {
        if self.read_misses == 0 {
            0.0
        } else {
            self.read_covered as f64 / self.read_misses as f64
        }
    }

    /// Uncovered fraction.
    pub fn uncovered(&self) -> f64 {
        1.0 - self.coverage()
    }

    /// Overpredictions normalised to baseline misses (may exceed 1).
    pub fn overprediction_rate(&self) -> f64 {
        if self.baseline_misses == 0 {
            0.0
        } else {
            self.overpredictions as f64 / self.baseline_misses as f64
        }
    }

    /// Mean length of covered runs (Figure 2).
    pub fn mean_stream_length(&self) -> f64 {
        self.stream_lengths.mean()
    }

    /// Mean serial metadata round trips before a stream's first prefetch
    /// (Figure 6's timeliness argument: 2 for STMS, 1 for Domino).
    pub fn mean_first_prefetch_trips(&self) -> f64 {
        if self.first_prefetch_count == 0 {
            0.0
        } else {
            self.first_prefetch_trips as f64 / self.first_prefetch_count as f64
        }
    }

    /// Baseline demand traffic in bytes (for Figure 15 normalisation).
    pub fn demand_bytes(&self) -> u64 {
        self.baseline_misses * LINE_BYTES
    }

    /// Incorrect-prefetch traffic in bytes.
    pub fn incorrect_prefetch_bytes(&self) -> u64 {
        self.overpredictions * LINE_BYTES
    }

    /// Metadata read traffic in bytes.
    pub fn metadata_read_bytes(&self) -> u64 {
        self.meta_read_blocks * LINE_BYTES
    }

    /// Metadata write traffic in bytes.
    pub fn metadata_write_bytes(&self) -> u64 {
        self.meta_write_blocks * LINE_BYTES
    }
}

/// Runs `prefetcher` over `trace` under the paper's methodology.
///
/// Takes a borrowed slice so one generated trace can be shared across
/// many runs (and across the threads of [`crate::exec`]).
pub fn run_coverage(
    system: &SystemConfig,
    trace: &[AccessEvent],
    prefetcher: &mut dyn Prefetcher,
) -> CoverageReport {
    run_coverage_warmed(system, trace, prefetcher, 0)
}

/// [`run_coverage`] with a warmup prefix: the first `warmup` accesses
/// train the caches and the prefetcher but are excluded from every
/// metric — the paper's SimFlex methodology of measuring from warmed
/// checkpoints (§IV-C).
pub fn run_coverage_warmed(
    system: &SystemConfig,
    trace: &[AccessEvent],
    prefetcher: &mut dyn Prefetcher,
    warmup: usize,
) -> CoverageReport {
    run_coverage_observed(system, trace, prefetcher, warmup, &mut Telemetry::off())
}

/// Emits one cumulative telemetry snapshot row of a coverage run. The
/// column order here is the schema of coverage epoch rows; it must stay
/// identical across every epoch of a run.
fn emit_coverage_row(
    row: &mut dyn CounterSink,
    report: &CoverageReport,
    l1: &SetAssocCache,
    buffer: &PrefetchBuffer,
    prefetcher: &dyn Prefetcher,
) {
    row.counter("accesses", report.accesses);
    l1.emit_counters("l1", row);
    row.counter("baseline_misses", report.baseline_misses);
    row.counter("covered", report.covered);
    row.counter("issued", report.prefetches_issued);
    row.counter("meta_read_blocks", report.meta_read_blocks);
    row.counter("meta_write_blocks", report.meta_write_blocks);
    buffer.emit_counters(row);
    prefetcher.emit_counters(row);
}

/// [`run_coverage_warmed`] with a telemetry handle: every L1 miss ticks
/// the epoch clock (L1 hits never reach the prefetcher and do not
/// count), every epoch boundary snapshots the cumulative counters
/// (engine metrics, L1, buffer, and the prefetcher's own counters) as of
/// the miss that closed it, and covered misses record their
/// prefetch-to-use distance in demand accesses. An attached flight
/// recorder logs every trigger's decisions.
///
/// Observed and unobserved runs take the same loop, in steps of the
/// effective [`crate::observe::batch_size`]; with a disabled handle this
/// is exactly [`run_coverage_warmed`].
pub fn run_coverage_observed(
    system: &SystemConfig,
    trace: &[AccessEvent],
    prefetcher: &mut dyn Prefetcher,
    warmup: usize,
    tel: &mut Telemetry,
) -> CoverageReport {
    let batch = crate::observe::batch_size();
    run_coverage_stepped(system, trace, prefetcher, warmup, batch, tel)
}

/// [`run_coverage_warmed`] in steps of `batch` events, ignoring the
/// process-wide knob. Reports are byte-identical at every step size; the
/// `domino-check` batch-parity oracle compares batch 1 with larger ones.
pub fn run_coverage_with_batch(
    system: &SystemConfig,
    trace: &[AccessEvent],
    prefetcher: &mut dyn Prefetcher,
    warmup: usize,
    batch: u32,
) -> CoverageReport {
    run_coverage_stepped(
        system,
        trace,
        prefetcher,
        warmup,
        batch,
        &mut Telemetry::off(),
    )
}

/// One [`CoverageSession`] over a cached trace in `batch`-event steps,
/// with `tel` lent to the session for the run.
fn run_coverage_stepped(
    system: &SystemConfig,
    trace: &[AccessEvent],
    prefetcher: &mut dyn Prefetcher,
    warmup: usize,
    batch: u32,
    tel: &mut Telemetry,
) -> CoverageReport {
    let owned = std::mem::take(tel);
    let mut session = CoverageSession::observed(system, prefetcher.name(), warmup, owned);
    prefetcher.reserve(trace.len());
    session.feed_steps(prefetcher, trace, batch as usize);
    session.finish_observed(prefetcher, tel)
}

/// Logs one prefetch-buffer insert to the flight recorder: a fill, a
/// duplicate drop, or an unused victim's eviction plus the fill. `ready`
/// is the fill's arrival stamp. Shared by both engines.
pub(crate) fn record_insert(
    rec: &mut FlightRecorder,
    time: u64,
    req: &PrefetchRequest,
    outcome: InsertOutcome,
    ready: u64,
) {
    match outcome {
        InsertOutcome::Inserted => rec.fill(time, req.line.raw(), req.stream, ready),
        InsertOutcome::Duplicate => rec.drop_unbuffered(time, req.line.raw(), req.stream, 1),
        InsertOutcome::Evicted(victim) => {
            rec.evict_unused(time, victim.line.raw(), victim.stream);
            rec.fill(time, req.line.raw(), req.stream, ready);
        }
    }
}

/// FNV-1a fold step for the decision digest.
fn fold(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
}

/// FNV-1a offset basis — the digest's starting value.
const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Why a [`CoverageDriver`] ended a drain. The prefetcher is mutably
/// borrowed while it drains the driver, so whatever needs the prefetcher
/// itself happens in the session, between two drains of the same step.
#[derive(Debug, Clone, Copy)]
enum Pause {
    /// Every event of the step was walked and every trigger applied.
    Drained,
    /// The trigger just applied closed a telemetry epoch: snapshot the
    /// counters, the prefetcher's included, before walking on.
    Epoch,
    /// The walk reached an uncovered miss (absolute index, trigger)
    /// with a flight recorder attached: probe
    /// [`Prefetcher::knows_line`] before the miss trains the prefetcher.
    Probe(u64, TriggerEvent),
}

/// The coverage engine's [`TriggerBatch`]: walks one step's events
/// against the live L1 and hands each miss to the prefetcher as a
/// triggering event, resolved against the prefetch buffer — the paper's
/// per-event pipeline (§IV-C), one pull at a time.
struct CoverageDriver<'a> {
    l1: &'a mut SetAssocCache,
    buffer: &'a mut PrefetchBuffer,
    report: &'a mut CoverageReport,
    run: &'a mut u64,
    tel: &'a mut Telemetry,
    dist_hist: HistId,
    /// When present, every metadata decision — trigger kinds, issued
    /// prefetches, stream discards, replacement victims, metadata
    /// traffic — folds into this FNV accumulator in replay order.
    digest: Option<&'a mut u64>,
    measuring: bool,
    /// The step's events; `base` is the absolute trace index of
    /// `events[0]`.
    events: &'a [AccessEvent],
    base: u64,
    /// Next event to walk.
    pos: usize,
    /// A probed trigger to hand out before walking on.
    resume: Option<(u64, TriggerEvent)>,
    /// Absolute index of the trigger whose outputs the next `next` call
    /// applies.
    pending: Option<u64>,
    /// Set when `next` returns `None`.
    pause: Option<Pause>,
}

impl CoverageDriver<'_> {
    /// Walks the L1 up to the next miss, resolves it against the prefetch
    /// buffer, and returns its trigger; pauses at the end of the step or
    /// before an uncovered miss the flight recorder must probe.
    fn walk(&mut self) -> Option<TriggerEvent> {
        let measured = u64::from(self.measuring);
        while let Some(ev) = self.events.get(self.pos) {
            let i = self.base + self.pos as u64;
            self.pos += 1;
            self.report.accesses += measured;
            let line = ev.line();
            if self.l1.access_insert(line).0 {
                self.report.l1_hits += measured;
                continue;
            }
            let taken = self.buffer.take(line);
            let covered = taken.is_some();
            if self.measuring {
                let read = u64::from(ev.kind.is_read());
                self.report.baseline_misses += 1;
                self.report.read_misses += read;
                if covered {
                    self.report.covered += 1;
                    self.report.read_covered += read;
                    *self.run += 1;
                } else if *self.run > 0 {
                    self.report.stream_lengths.record(*self.run);
                    *self.run = 0;
                }
            }
            if let Some(h) = self.digest.as_deref_mut() {
                fold(h, u64::from(covered));
                fold(h, ev.pc.raw());
                fold(h, line.raw());
            }
            let trigger = if covered {
                TriggerEvent::prefetch_hit(ev.pc, line)
            } else {
                TriggerEvent::miss(ev.pc, line)
            };
            match taken {
                Some(entry) => {
                    // The coverage engine never uses arrival times, so
                    // `ready_at` carries the inserting access's index
                    // instead: the difference is the prefetch-to-use
                    // distance in demand accesses.
                    let distance = (i as f64 - entry.ready_at).max(0.0) as u64;
                    self.tel.record(self.dist_hist, distance);
                    if let Some(rec) = self.tel.tracer() {
                        rec.demand_hit(i, line.raw(), entry.stream, distance);
                    }
                }
                None if self.tel.has_tracer() => {
                    self.pause = Some(Pause::Probe(i, trigger));
                    return None;
                }
                None => {}
            }
            self.pending = Some(i);
            return Some(trigger);
        }
        self.pause = Some(Pause::Drained);
        None
    }

    /// Applies trigger `i`'s sink outputs: stream discards, buffer fills
    /// gated on the live L1 (which holds exactly the state after event
    /// `i`'s demand fill), and metadata traffic — logging each to the
    /// flight recorder in pipeline order.
    fn apply(&mut self, i: u64, sink: &CollectSink) {
        if let Some(h) = self.digest.as_deref_mut() {
            for &stream in &sink.discarded_streams {
                fold(h, 0x10);
                fold(h, u64::from(stream));
            }
            for req in &sink.requests {
                fold(h, 0x20);
                fold(h, req.line.raw());
                fold(h, u64::from(req.delay_trips));
                fold(h, req.stream.map_or(u64::MAX, u64::from));
            }
            for &line in &sink.replaced {
                fold(h, 0x30);
                fold(h, line.raw());
            }
            fold(h, sink.meta_read_blocks);
            fold(h, sink.meta_write_blocks);
        }
        let mut rec = self.tel.tracer();
        if let Some(rec) = rec.as_deref_mut() {
            if sink.meta_read_blocks > 0 {
                // The coverage engine is un-timed: the lookup begins and
                // ends at the same access index.
                rec.meta_start(i, sink.meta_read_blocks);
                rec.meta_end(i, 0);
            }
            for &tag in &sink.replaced {
                rec.eit_replace(i, tag.raw());
            }
        }
        for &stream in &sink.discarded_streams {
            match rec.as_deref_mut() {
                Some(rec) => {
                    self.buffer.discard_stream_with(stream, |e| {
                        rec.evict_unused(i, e.line.raw(), e.stream);
                    });
                }
                None => {
                    self.buffer.discard_stream(stream);
                }
            }
        }
        let mut first_of_event = true;
        for req in &sink.requests {
            if self.measuring {
                self.report.prefetches_issued += 1;
                if first_of_event && req.delay_trips > 0 {
                    // A request needing metadata trips in this event opens
                    // or re-points a stream; track its timeliness.
                    self.report.first_prefetch_trips += u64::from(req.delay_trips);
                    self.report.first_prefetch_count += 1;
                    first_of_event = false;
                }
            }
            if let Some(rec) = rec.as_deref_mut() {
                rec.issue(i, req.line.raw(), req.stream, req.delay_trips);
            }
            if self.l1.contains(req.line) {
                // Already in the L1: the engine drops the request.
                if let Some(rec) = rec.as_deref_mut() {
                    rec.drop_unbuffered(i, req.line.raw(), req.stream, 2);
                }
                continue;
            }
            let outcome = self.buffer.insert(req.line, i as f64, req.stream);
            if let Some(rec) = rec.as_deref_mut() {
                record_insert(rec, i, req, outcome, i);
            }
        }
        if self.measuring {
            self.report.meta_read_blocks += sink.meta_read_blocks;
            self.report.meta_write_blocks += sink.meta_write_blocks;
        }
    }
}

impl TriggerBatch for CoverageDriver<'_> {
    fn next(&mut self, sink: &mut CollectSink) -> Option<TriggerEvent> {
        if let Some(i) = self.pending.take() {
            self.apply(i, sink);
            if self.tel.tick() {
                sink.clear();
                self.pause = Some(Pause::Epoch);
                return None;
            }
        }
        sink.clear();
        if let Some((i, trigger)) = self.resume.take() {
            self.pending = Some(i);
            return Some(trigger);
        }
        self.walk()
    }
}

/// An incremental coverage run, and the coverage engine's one event
/// loop. Each step walks its events against the live L1 (the fused
/// [`SetAssocCache::access_insert`]), resolves every miss against the
/// prefetch buffer, and hands the misses to the prefetcher through one
/// [`Prefetcher::train_predict_batch`] call. Observed runs
/// ([`run_coverage_observed`]) take the same loop; a step only returns
/// to the session between two triggers when observation needs the
/// prefetcher itself: an epoch snapshot reads its counters, and the
/// flight recorder probes [`Prefetcher::knows_line`] before an uncovered
/// miss trains it.
///
/// Any partition of the trace into [`CoverageSession::step`] calls
/// produces byte-identical reports, decision digests, telemetry and
/// traces — the `domino-check` batch-parity oracle compares batch 1 with
/// larger steps — so callers that receive a stream in pieces (the
/// `domino-service` metadata service feeds one session per tenant, one
/// request batch at a time) never need to align their chunk boundaries
/// with anything.
///
/// The session carries the per-run engine state (L1 model, prefetch
/// buffer) but **not** the prefetcher, which is passed to every `step`;
/// the prefetcher is owned by the caller so it can be probed
/// ([`Prefetcher::knows_line`]) or sized
/// ([`Prefetcher::footprint_bytes`]) between steps.
pub struct CoverageSession {
    l1: scratch::Pooled<SetAssocCache>,
    buffer: scratch::Pooled<PrefetchBuffer>,
    sink: scratch::Pooled<CollectSink>,
    report: CoverageReport,
    run: u64,
    warmup: usize,
    warmup_overpredictions: u64,
    /// Accesses consumed so far — the absolute trace index the next
    /// [`CoverageSession::step`] resumes from.
    seen: usize,
    /// Decision digest accumulator ([`CoverageSession::enable_digest`]).
    digest: Option<u64>,
    /// Epoch telemetry and flight recorder; off unless the session was
    /// opened by [`run_coverage_observed`].
    tel: Telemetry,
    dist_hist: HistId,
}

impl CoverageSession {
    /// Creates a session for one run of `name` under `system`, with the
    /// first `warmup` accesses excluded from metrics as in
    /// [`run_coverage_warmed`].
    pub fn new(system: &SystemConfig, name: &str, warmup: usize) -> Self {
        CoverageSession::observed(system, name, warmup, Telemetry::off())
    }

    /// [`CoverageSession::new`] observed through `tel`.
    fn observed(system: &SystemConfig, name: &str, warmup: usize, mut tel: Telemetry) -> Self {
        let dist_hist = tel.register_histogram("prefetch_to_use_distance", DISTANCE_BOUNDS);
        CoverageSession {
            l1: scratch::cache(system.l1d),
            buffer: scratch::buffer(system.prefetch_buffer_blocks),
            sink: scratch::sink(),
            report: CoverageReport {
                name: name.to_string(),
                accesses: 0,
                l1_hits: 0,
                baseline_misses: 0,
                covered: 0,
                read_misses: 0,
                read_covered: 0,
                prefetches_issued: 0,
                overpredictions: 0,
                meta_read_blocks: 0,
                meta_write_blocks: 0,
                stream_lengths: Histogram::fig12(),
                first_prefetch_trips: 0,
                first_prefetch_count: 0,
            },
            run: 0,
            warmup,
            warmup_overpredictions: 0,
            seen: 0,
            digest: None,
            tel,
            dist_hist,
        }
    }

    /// Turns on the decision digest: an order-sensitive FNV-1a fold over
    /// every metadata decision of the run — trigger kinds, issued
    /// prefetches (line, delay trips, stream), stream discards,
    /// replacement victims, and metadata traffic. Two runs that made
    /// identical decisions in identical order have equal digests
    /// regardless of how their traces were partitioned into steps; the
    /// service-equivalence oracle leans on exactly that.
    pub fn enable_digest(&mut self) {
        self.digest = Some(DIGEST_BASIS);
    }

    /// The digest accumulated so far (the FNV basis when no decision has
    /// folded yet; 0 if the digest was never enabled).
    pub fn digest(&self) -> u64 {
        self.digest.unwrap_or(0)
    }

    /// Accesses consumed so far — the next step resumes here.
    pub fn processed(&self) -> usize {
        self.seen
    }

    /// Metrics accumulated so far. `overpredictions` is only final after
    /// [`CoverageSession::finish`] (leftover buffered prefetches count).
    pub fn report(&self) -> &CoverageReport {
        &self.report
    }

    /// Skips forward to absolute trace index `index` without processing
    /// the events in between — the service's accounting for request
    /// batches lost to load shedding. The skipped events are simply
    /// never replayed (the L1 and metadata keep their pre-gap state), so
    /// a skipping run is *not* comparable to a contiguous one.
    ///
    /// # Panics
    ///
    /// Panics if `index` would rewind the session.
    pub fn skip_to(&mut self, index: usize) {
        assert!(
            index >= self.seen,
            "coverage session cannot rewind: at {}, asked for {}",
            self.seen,
            index
        );
        self.seen = index;
    }

    /// Processes `trace[processed()..end]` as one step.
    pub fn step(&mut self, prefetcher: &mut dyn Prefetcher, trace: &[AccessEvent], end: usize) {
        let n = end.min(trace.len());
        if self.seen < n {
            self.feed(prefetcher, &trace[self.seen..n]);
        }
    }

    /// Processes one streamed chunk whose first event sits at the
    /// session's current absolute position ([`CoverageSession::processed`]),
    /// splitting it at the warmup boundary so `measuring` stays constant
    /// within a step. This is the out-of-core twin of
    /// [`CoverageSession::step`]: the chunk need not be a window into any
    /// materialized trace, and because the session is partition-invariant
    /// the result is byte-identical to a cached-slice run over the same
    /// events no matter how the stream was chunked.
    pub fn feed(&mut self, prefetcher: &mut dyn Prefetcher, chunk: &[AccessEvent]) {
        let mut off = 0usize;
        while off < chunk.len() {
            let s = self.seen;
            let mut len = chunk.len() - off;
            if s < self.warmup && s + len > self.warmup {
                len = self.warmup - s;
            }
            self.feed_step(prefetcher, &chunk[off..off + len], s);
            off += len;
            self.seen = s + len;
        }
    }

    /// Feeds `events` in steps of `batch` events (at least one).
    fn feed_steps(
        &mut self,
        prefetcher: &mut dyn Prefetcher,
        events: &[AccessEvent],
        batch: usize,
    ) {
        for step in events.chunks(batch.max(1)) {
            self.feed(prefetcher, step);
        }
    }

    /// One step whose first event is absolute index `s`; `measuring` is
    /// constant across it. Drains the driver once, or once more after
    /// each pause observation asks for.
    fn feed_step(&mut self, prefetcher: &mut dyn Prefetcher, step: &[AccessEvent], s: usize) {
        let measuring = s >= self.warmup;
        if measuring && s == self.warmup && self.warmup > 0 {
            self.warmup_overpredictions = self.buffer.stats().overpredictions();
        }
        let mut pos = 0;
        let mut resume = None;
        loop {
            let mut driver = CoverageDriver {
                l1: &mut self.l1,
                buffer: &mut self.buffer,
                report: &mut self.report,
                run: &mut self.run,
                tel: &mut self.tel,
                dist_hist: self.dist_hist,
                digest: self.digest.as_mut(),
                measuring,
                events: step,
                base: s as u64,
                pos,
                resume,
                pending: None,
                pause: None,
            };
            prefetcher.train_predict_batch(&mut driver, &mut self.sink);
            pos = driver.pos;
            resume = None;
            match driver
                .pause
                .expect("train_predict_batch must drain the batch")
            {
                Pause::Drained => return,
                Pause::Epoch => self.tel.snapshot(|row| {
                    emit_coverage_row(row, &self.report, &self.l1, &self.buffer, &*prefetcher)
                }),
                Pause::Probe(i, trigger) => {
                    // Probe the metadata before this miss trains it, so the
                    // mispredicted / no-metadata split reflects what the
                    // prefetcher knew when it failed to cover the line.
                    let knows = prefetcher.knows_line(trigger.line);
                    if let Some(rec) = self.tel.tracer() {
                        rec.demand_miss(i, trigger.line.raw(), knows);
                    }
                    resume = Some((i, trigger));
                }
            }
        }
    }

    /// Closes the run: records the trailing covered-run length and
    /// charges leftover buffered prefetches as overpredictions.
    pub fn finish(mut self) -> CoverageReport {
        if self.run > 0 {
            self.report.stream_lengths.record(self.run);
        }
        let stats = self.buffer.stats();
        self.report.overpredictions =
            (stats.overpredictions() - self.warmup_overpredictions) + self.buffer.len() as u64;
        self.report
    }

    /// [`CoverageSession::finish`] for an observed session: flushes the
    /// partial telemetry epoch (its row reads the prefetcher's counters)
    /// and hands the telemetry back through `tel`.
    fn finish_observed(
        mut self,
        prefetcher: &dyn Prefetcher,
        tel: &mut Telemetry,
    ) -> CoverageReport {
        self.tel
            .flush(|row| emit_coverage_row(row, &self.report, &self.l1, &self.buffer, prefetcher));
        *tel = std::mem::take(&mut self.tel);
        self.finish()
    }
}

/// Runs a whole trace through a [`CoverageSession`] with the decision
/// digest enabled, stepping in `batch`-sized increments, and returns the
/// report plus digest — the single-tenant reference side of the
/// service-equivalence oracle.
pub fn run_coverage_session(
    system: &SystemConfig,
    trace: &[AccessEvent],
    prefetcher: &mut dyn Prefetcher,
    batch: usize,
) -> (CoverageReport, u64) {
    let mut session = CoverageSession::new(system, prefetcher.name(), 0);
    session.enable_digest();
    prefetcher.reserve(trace.len());
    session.feed_steps(prefetcher, trace, batch);
    let digest = session.digest();
    (session.finish(), digest)
}

/// Feeds every chunk of `source` to `session` in `batch`-event steps.
/// Only one source chunk of events is resident at a time.
fn feed_source(
    session: &mut CoverageSession,
    source: &mut dyn EventSource,
    prefetcher: &mut dyn Prefetcher,
    batch: usize,
) -> Result<(), TraceFileError> {
    prefetcher.reserve(usize::try_from(source.total_events()).unwrap_or(usize::MAX));
    let mut chunk = Vec::new();
    loop {
        let n = source.next_chunk(&mut chunk)?;
        if n == 0 {
            return Ok(());
        }
        // Re-split at batch granularity so the steps match the cached
        // run's (any split is byte-identical; matching sizes keeps the
        // performance profile comparable too).
        session.feed_steps(prefetcher, &chunk[..n], batch);
    }
}

/// [`run_coverage_with_batch`] over a streaming [`EventSource`]: the same
/// decision sequence as on the materialized trace (the session is
/// partition-invariant and indexes events absolutely), with only one
/// source chunk resident at a time. The streaming parity oracle in
/// `domino-check` holds this byte-identical to the cached path for every
/// roster system.
///
/// # Errors
///
/// Propagates decode/I/O errors from the source.
pub fn run_coverage_streamed(
    system: &SystemConfig,
    source: &mut dyn EventSource,
    prefetcher: &mut dyn Prefetcher,
    warmup: usize,
    batch: usize,
) -> Result<CoverageReport, TraceFileError> {
    let mut session = CoverageSession::new(system, prefetcher.name(), warmup);
    feed_source(&mut session, source, prefetcher, batch)?;
    Ok(session.finish())
}

/// Streamed twin of [`run_coverage_session`]: digest-enabled, no warmup,
/// `batch`-sized steps — the streaming side of the parity oracle.
///
/// # Errors
///
/// Propagates decode/I/O errors from the source.
pub fn run_coverage_streamed_session(
    system: &SystemConfig,
    source: &mut dyn EventSource,
    prefetcher: &mut dyn Prefetcher,
    batch: usize,
) -> Result<(CoverageReport, u64), TraceFileError> {
    let mut session = CoverageSession::new(system, prefetcher.name(), 0);
    session.enable_digest();
    feed_source(&mut session, source, prefetcher, batch)?;
    let digest = session.digest();
    Ok((session.finish(), digest))
}

/// Convenience: the baseline miss sequence (line addresses, reads and
/// writes) after L1 filtering — the input for Sequitur/oracle analyses
/// and the lookup-depth studies.
pub fn baseline_miss_sequence(system: &SystemConfig, trace: &[AccessEvent]) -> Vec<u64> {
    let mut l1 = scratch::cache(system.l1d);
    let mut out = Vec::new();
    for ev in trace {
        let line = ev.line();
        if !l1.access(line) {
            l1.insert(line);
            out.push(line.raw());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_mem::interface::NoPrefetcher;
    use domino_prefetchers::{Stms, TemporalConfig};
    use domino_trace::addr::{Addr, Pc};
    use domino_trace::event::AccessEvent;
    use domino_trace::workload::catalog;

    fn system() -> SystemConfig {
        SystemConfig::paper()
    }

    fn synthetic_repeating(n_reps: usize, len: u64) -> Vec<AccessEvent> {
        let mut out = Vec::new();
        for _ in 0..n_reps {
            for i in 0..len {
                // Spread lines so they always miss a 64 KB L1? No: keep a
                // footprint larger than L1 (1024 sets * 2 ways): stride by
                // lines over a large region.
                let line = i * 131 + 7;
                out.push(AccessEvent::read(Pc::new(4), Addr::new(line << 6)));
            }
        }
        out
    }

    #[test]
    fn baseline_has_zero_coverage() {
        let trace = synthetic_repeating(3, 4096);
        let mut p = NoPrefetcher;
        let r = run_coverage(&system(), &trace, &mut p);
        assert_eq!(r.covered, 0);
        assert_eq!(r.coverage(), 0.0);
        assert_eq!(r.overpredictions, 0);
        assert!(r.baseline_misses > 0);
    }

    #[test]
    fn stms_covers_repeating_sequences() {
        // Footprint 4096 lines * 131 stride: far beyond L1 → every access
        // misses; the sequence repeats → STMS should cover plenty.
        let trace = synthetic_repeating(6, 4096);
        let mut p = Stms::new(TemporalConfig {
            sampling_probability: 1.0,
            stream_end_detection: false,
            ..TemporalConfig::default()
        });
        let r = run_coverage(&system(), &trace, &mut p);
        assert!(
            r.coverage() > 0.5,
            "coverage {} of {} misses",
            r.coverage(),
            r.baseline_misses
        );
        assert!(r.mean_stream_length() > 1.0);
        assert!(r.meta_read_blocks > 0);
    }

    #[test]
    fn l1_filters_hot_lines() {
        // A tiny loop fits in the L1: after the first pass, no misses.
        let mut trace = Vec::new();
        for _ in 0..10 {
            for i in 0..16u64 {
                trace.push(AccessEvent::read(Pc::new(4), Addr::new(i * 64)));
            }
        }
        let mut p = NoPrefetcher;
        let r = run_coverage(&system(), &trace, &mut p);
        assert_eq!(r.baseline_misses, 16);
        assert_eq!(r.l1_hits, 9 * 16);
    }

    #[test]
    fn baseline_miss_counts_match_with_and_without_prefetcher() {
        let spec = catalog::oltp();
        let trace: Vec<_> = spec.generator(11).take(30_000).collect();
        let mut none = NoPrefetcher;
        let base = run_coverage(&system(), &trace, &mut none);
        let mut stms = Stms::new(TemporalConfig::default());
        let with = run_coverage(&system(), &trace, &mut stms);
        assert_eq!(
            base.baseline_misses, with.baseline_misses,
            "prefetching must not perturb the baseline miss count"
        );
    }

    #[test]
    fn miss_sequence_matches_engine_count() {
        let spec = catalog::web_search();
        let trace: Vec<_> = spec.generator(5).take(20_000).collect();
        let seq = baseline_miss_sequence(&system(), &trace);
        let mut p = NoPrefetcher;
        let r = run_coverage(&system(), &trace, &mut p);
        assert_eq!(seq.len() as u64, r.baseline_misses);
    }

    #[test]
    fn read_coverage_tracks_overall_coverage() {
        let spec = catalog::oltp();
        let trace: Vec<_> = spec.generator(4).take(50_000).collect();
        let mut p = Stms::new(TemporalConfig::default());
        let r = run_coverage(&system(), &trace, &mut p);
        assert!(r.read_misses > 0 && r.read_misses < r.baseline_misses);
        assert!(
            (r.read_coverage() - r.coverage()).abs() < 0.05,
            "read {:.3} vs overall {:.3}",
            r.read_coverage(),
            r.coverage()
        );
    }

    #[test]
    fn warmup_excludes_cold_metrics() {
        let spec = catalog::oltp();
        let trace: Vec<_> = spec.generator(21).take(40_000).collect();
        let mut cold = Stms::new(TemporalConfig::default());
        let cold_r = run_coverage(&system(), &trace, &mut cold);
        let mut warm = Stms::new(TemporalConfig::default());
        let warm_r = super::run_coverage_warmed(&system(), &trace, &mut warm, 10_000);
        // The warmed run measures fewer accesses but higher coverage: the
        // cold-start region (empty tables, first touches) is excluded.
        assert!(warm_r.accesses < cold_r.accesses);
        assert!(
            warm_r.coverage() > cold_r.coverage(),
            "warmed {:.3} vs cold {:.3}",
            warm_r.coverage(),
            cold_r.coverage()
        );
    }

    #[test]
    fn warmup_longer_than_trace_measures_nothing() {
        let spec = catalog::oltp();
        let trace: Vec<_> = spec.generator(21).take(1_000).collect();
        let mut p = NoPrefetcher;
        let r = super::run_coverage_warmed(&system(), &trace, &mut p, 5_000);
        assert_eq!(r.accesses, 0);
        assert_eq!(r.baseline_misses, 0);
    }

    #[test]
    fn coverage_is_byte_identical_at_any_step_size() {
        let spec = catalog::oltp();
        let trace: Vec<_> = spec.generator(17).take(30_000).collect();
        for warmup in [0usize, 10_000, 29_999] {
            let mut one_p = Stms::new(TemporalConfig::default());
            let one = run_coverage_with_batch(&system(), &trace, &mut one_p, warmup, 1);
            for batch in [2u32, 7, 64, 4096] {
                let mut p = Stms::new(TemporalConfig::default());
                let stepped = run_coverage_with_batch(&system(), &trace, &mut p, warmup, batch);
                assert_eq!(
                    format!("{one:?}"),
                    format!("{stepped:?}"),
                    "batch {batch}, warmup {warmup}"
                );
            }
        }
    }

    #[test]
    fn session_steps_of_any_size_match_a_whole_run() {
        let spec = catalog::oltp();
        let trace: Vec<_> = spec.generator(23).take(20_000).collect();
        let mut whole_p = Stms::new(TemporalConfig::default());
        let whole = run_coverage_with_batch(&system(), &trace, &mut whole_p, 0, 1);
        // Feed the session in ragged increments (growing, then tiny).
        let mut p = Stms::new(TemporalConfig::default());
        let mut session = CoverageSession::new(&system(), p.name(), 0);
        p.reserve(trace.len());
        let mut end = 0usize;
        let mut stride = 1usize;
        while end < trace.len() {
            end = (end + stride).min(trace.len());
            session.step(&mut p, &trace, end);
            assert_eq!(session.processed(), end);
            stride = (stride * 3 + 1) % 977 + 1;
        }
        let report = session.finish();
        assert_eq!(format!("{whole:?}"), format!("{report:?}"));
    }

    /// The absolute access index is carried as `u64`: a session whose
    /// steps straddle index 2^32 decides exactly like one starting low.
    #[test]
    fn session_index_past_u32_max_matches_a_low_start() {
        let trace = synthetic_repeating(3, 4096);
        let run_from = |start: usize| {
            let mut p = Stms::new(TemporalConfig::default());
            let mut session = CoverageSession::new(&system(), p.name(), 0);
            session.enable_digest();
            session.skip_to(start);
            for step in trace.chunks(64) {
                session.feed(&mut p, step);
            }
            assert_eq!(session.processed(), start + trace.len());
            let digest = session.digest();
            (format!("{:?}", session.finish()), digest)
        };
        let low = run_from(5);
        let high = run_from(u32::MAX as usize - 5_000);
        assert_eq!(low, high);
    }

    #[test]
    fn session_digest_is_partition_invariant() {
        let spec = catalog::web_search();
        let trace: Vec<_> = spec.generator(13).take(15_000).collect();
        let mut digests = Vec::new();
        let mut reports = Vec::new();
        for batch in [1usize, 7, 64, 4096] {
            let mut p = Stms::new(TemporalConfig::default());
            let (report, digest) = run_coverage_session(&system(), &trace, &mut p, batch);
            digests.push(digest);
            reports.push(format!("{report:?}"));
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "digests diverge across partitions: {digests:?}"
        );
        assert!(reports.windows(2).all(|w| w[0] == w[1]));
        // The digest actually covers decisions: a different trace (or a
        // truncated one) must not collide.
        let mut p = Stms::new(TemporalConfig::default());
        let (_, shorter) = run_coverage_session(&system(), &trace[..14_000], &mut p, 64);
        assert_ne!(shorter, digests[0]);
    }

    #[test]
    fn session_skip_to_jumps_forward() {
        let spec = catalog::oltp();
        let trace: Vec<_> = spec.generator(2).take(4_000).collect();
        let mut p = NoPrefetcher;
        let mut session = CoverageSession::new(&system(), p.name(), 0);
        session.step(&mut p, &trace, 1_000);
        session.skip_to(3_000);
        session.step(&mut p, &trace, trace.len());
        assert_eq!(session.processed(), 4_000);
        let report = session.finish();
        // Only the non-skipped 2000 events were measured.
        assert_eq!(report.accesses, 2_000);
    }

    #[test]
    fn stms_beats_nothing_on_oltp() {
        let spec = catalog::oltp();
        let trace: Vec<_> = spec.generator(3).take(60_000).collect();
        let mut stms = Stms::new(TemporalConfig::default());
        let r = run_coverage(&system(), &trace, &mut stms);
        assert!(r.coverage() > 0.1, "OLTP coverage {}", r.coverage());
    }
}
