//! Interval timing model — the reproduction's substitute for the paper's
//! Flexus cycle-accurate simulation (§IV-C), producing the Figure 14
//! speedups and the Figure 15 bandwidth breakdown.
//!
//! The model advances a time cursor in nanoseconds per trace event:
//!
//! * non-memory instructions retire at full width (`gap_insts / width`
//!   cycles);
//! * an L1 hit costs nothing beyond the front-end (hidden by the OoO
//!   window);
//! * a **dependent** miss (pointer chase) stalls until its data arrives —
//!   dependent misses serialize, which is exactly why the paper targets
//!   them;
//! * an **independent** miss does not stall at issue; instead it imposes a
//!   *retirement constraint*: by the time `rob_entries` further
//!   instructions have entered the window, its data must have arrived, or
//!   the core waits. Bursts of independent misses therefore overlap
//!   (memory-level parallelism), bounded by the L1 MSHRs and the shared
//!   channel bandwidth;
//! * a miss that hits the 4 MB LLC costs the L2 latency; LLC misses go
//!   to memory, and every demand fill, prefetch fill, metadata read and
//!   metadata write contends for the shared DRAM channel (45 ns,
//!   37.5 GB/s). Metadata is never cached (paper §III-B);
//! * the LLC is shared by four cores (Table I): for every fill our core
//!   performs, the model inserts fills from the other three cores'
//!   (unsimulated) traffic, so our core competes for its share of the
//!   LLC instead of owning all 4 MB;
//! * a demand access to a block with a prefetch still in flight merges
//!   with it: it waits the residual prefetch latency, but never longer
//!   than a fresh memory access would take;
//! * a prefetch's data arrives only after its serial metadata round trips
//!   (`delay_trips`) plus the memory access — a prefetch-buffer hit on a
//!   block still in flight waits for the residual latency. This is where
//!   Domino's one-round-trip stream start pays off against STMS
//!   (Figure 6).
//!
//! The absolute numbers are not those of a SPARC server; the *relative*
//! effects (who is faster, where bandwidth goes) are what the model is
//! for, and EXPERIMENTS.md compares those shapes against the paper.

use domino_mem::cache::SetAssocCache;
use domino_mem::dram::{Dram, TrafficCategory, TrafficStats};
use domino_mem::interface::{CollectSink, Prefetcher, TriggerEvent};
use domino_mem::mshr::MshrFile;
use domino_mem::prefetch_buffer::PrefetchBuffer;
use domino_telemetry::{CounterSink, HistId, Telemetry, LATENCY_BOUNDS, MSHR_BOUNDS};
use domino_trace::addr::{LineAddr, LINE_BYTES};
use domino_trace::event::AccessEvent;
use domino_trace::stream::{EventSource, TraceFileError};

use crate::config::SystemConfig;
use crate::engine::record_insert;
use crate::scratch;

/// Result of a timing run.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Prefetcher display name.
    pub name: String,
    /// Simulated time in nanoseconds.
    pub total_ns: f64,
    /// Instructions executed (memory + gap instructions).
    pub instructions: u64,
    /// Time spent stalled on dependent misses.
    pub dependent_stall_ns: f64,
    /// Time spent stalled beyond the hide window on independent misses.
    pub independent_stall_ns: f64,
    /// Demand misses that found their block ready in the buffer.
    pub timely_hits: u64,
    /// Demand misses that found their block still in flight.
    pub late_hits: u64,
    /// Demand misses served entirely from memory.
    pub full_misses: u64,
    /// Off-chip traffic by category.
    pub traffic: TrafficStats,
}

impl TimingReport {
    /// Instructions per nanosecond — the paper's "ratio of the number of
    /// application instructions to the total number of cycles" up to the
    /// clock constant.
    pub fn throughput(&self) -> f64 {
        if self.total_ns == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.total_ns
        }
    }

    /// Speedup of `self` over `baseline`.
    pub fn speedup_over(&self, baseline: &TimingReport) -> f64 {
        if self.total_ns == 0.0 {
            1.0
        } else {
            baseline.total_ns / self.total_ns
        }
    }

    /// Average consumed bandwidth in bytes/ns (== GB/s).
    pub fn bandwidth_gbps(&self) -> f64 {
        if self.total_ns == 0.0 {
            0.0
        } else {
            self.traffic.total() as f64 / self.total_ns
        }
    }
}

/// Per-core execution state of the interval model. `run_timing` drives a
/// single core with synthetic cross-core LLC pollution; the
/// [`crate::multicore`] module drives several real cores over a shared
/// LLC and channel.
pub(crate) struct CoreEngine<'a> {
    pub(crate) now: f64,
    report: TimingReport,
    l1: scratch::Pooled<SetAssocCache>,
    buffer: scratch::Pooled<PrefetchBuffer>,
    mshrs: scratch::Pooled<MshrFile>,
    rob_q: scratch::Pooled<scratch::RobQueue>,
    sink: scratch::Pooled<CollectSink>,
    prefetcher: &'a mut dyn Prefetcher,
    // Cached parameters.
    per_inst: f64,
    l1_lat: f64,
    l2_lat: f64,
    trip_ns: f64,
    rob: u64,
    /// Snapshot taken at the measurement boundary (warmed methodology):
    /// (now, instructions, dep_stall, indep_stall, timely, late, full).
    measure_from: Option<(f64, u64, f64, f64, u64, u64, u64)>,
    tel: &'a mut Telemetry,
    meta_lat_hist: HistId,
    mshr_hist: HistId,
}

/// Emits one cumulative telemetry snapshot row of a timing run (the
/// schema of timing epoch rows; stable across epochs of a run).
#[allow(clippy::too_many_arguments)]
fn emit_timing_row(
    row: &mut dyn CounterSink,
    report: &TimingReport,
    now: f64,
    l1: &SetAssocCache,
    buffer: &PrefetchBuffer,
    mshrs: &MshrFile,
    dram: &Dram,
    prefetcher: &dyn Prefetcher,
) {
    row.counter("instructions", report.instructions);
    row.counter("now_ns", now as u64);
    row.counter("timely_hits", report.timely_hits);
    row.counter("late_hits", report.late_hits);
    row.counter("full_misses", report.full_misses);
    row.counter("dependent_stall_ns", report.dependent_stall_ns as u64);
    row.counter("independent_stall_ns", report.independent_stall_ns as u64);
    l1.emit_counters("l1", row);
    buffer.emit_counters(row);
    mshrs.emit_counters("mshr", row);
    dram.emit_counters(row);
    prefetcher.emit_counters(row);
}

impl<'a> CoreEngine<'a> {
    pub(crate) fn new(
        system: &SystemConfig,
        prefetcher: &'a mut dyn Prefetcher,
        tel: &'a mut Telemetry,
    ) -> Self {
        let cycle = system.cycle_ns();
        let meta_lat_hist = tel.register_histogram("metadata_trip_ns", LATENCY_BOUNDS);
        let mshr_hist = tel.register_histogram("mshr_occupancy", MSHR_BOUNDS);
        CoreEngine {
            now: 0.0,
            report: TimingReport {
                name: prefetcher.name().to_string(),
                total_ns: 0.0,
                instructions: 0,
                dependent_stall_ns: 0.0,
                independent_stall_ns: 0.0,
                timely_hits: 0,
                late_hits: 0,
                full_misses: 0,
                traffic: TrafficStats::default(),
            },
            l1: scratch::cache(system.l1d),
            buffer: scratch::buffer(system.prefetch_buffer_blocks),
            mshrs: scratch::mshrs(system.l1d_mshrs),
            rob_q: scratch::rob_queue(),
            sink: scratch::sink(),
            prefetcher,
            per_inst: cycle / f64::from(system.issue_width),
            l1_lat: f64::from(system.l1d_latency_cycles) * cycle,
            l2_lat: f64::from(system.l2_latency_cycles) * cycle,
            trip_ns: system.memory.latency_ns,
            rob: u64::from(system.rob_entries),
            measure_from: None,
            tel,
            meta_lat_hist,
            mshr_hist,
        }
    }

    /// Marks the start of measurement: everything before this call is
    /// warmup and is subtracted from the final report.
    pub(crate) fn mark_measurement_start(&mut self) {
        self.measure_from = Some((
            self.now,
            self.report.instructions,
            self.report.dependent_stall_ns,
            self.report.independent_stall_ns,
            self.report.timely_hits,
            self.report.late_hits,
            self.report.full_misses,
        ));
    }

    /// Processes one trace event against the shared LLC and channel.
    ///
    /// The L1 probe and the demand fill are one fused scan
    /// ([`SetAssocCache::access_insert`]). Nothing between a probe and
    /// its demand fill reads the L1, so hoisting the fill to the probe is
    /// unobservable, and the dropped-request gate reads the live
    /// post-fill state. L1 hits return before the epoch clock ticks: it
    /// counts L1 misses.
    pub(crate) fn step(&mut self, ev: &AccessEvent, l2: &mut SetAssocCache, dram: &mut Dram) {
        let report = &mut self.report;
        report.instructions += u64::from(ev.gap_insts) + 1;
        self.now += f64::from(ev.gap_insts) * self.per_inst;
        // Enforce retirement constraints that have come due.
        while let Some(&(limit, done)) = self.rob_q.front() {
            if report.instructions >= limit {
                if done > self.now {
                    report.independent_stall_ns += done - self.now;
                    self.now = done;
                }
                self.rob_q.pop_front();
            } else {
                break;
            }
        }
        self.mshrs.retire_until(self.now);
        let line = ev.line();
        if self.l1.access_insert(line).0 {
            return;
        }
        // Demand miss: resolve when its data is available.
        let (data_ready, covered) = match self.buffer.take(line) {
            Some(entry) => {
                // Promote in the LLC exactly as the demand access would
                // have (covered lines must not decay to LRU victims).
                let was_in_l2 = l2.access(line);
                // A used prefetch moves into the cache hierarchy like a
                // demand fill (unused ones never leave the buffer).
                if !was_in_l2 {
                    l2.insert(line);
                }
                if entry.ready_at <= self.now {
                    report.timely_hits += 1;
                    if let Some(rec) = self.tel.tracer() {
                        // aux: how long the block sat ready before use.
                        rec.demand_hit(
                            self.now as u64,
                            line.raw(),
                            entry.stream,
                            (self.now - entry.ready_at).max(0.0) as u64,
                        );
                    }
                    (self.now + self.l1_lat, true)
                } else {
                    // Injected bug for the checker self-test: a late
                    // buffer hit is booked as a full miss (the data path
                    // is untouched, only the classification is wrong).
                    #[cfg(domino_mutate)]
                    let late_as_full = crate::mutate_active("timing_late_as_full");
                    #[cfg(not(domino_mutate))]
                    let late_as_full = false;
                    if late_as_full {
                        report.full_misses += 1;
                    } else {
                        report.late_hits += 1;
                    }
                    // Merge with the in-flight prefetch: wait its residual
                    // latency, but never longer than the demand's own best
                    // path (LLC hit or a fresh memory access).
                    let fresh = if was_in_l2 {
                        self.now + self.l2_lat
                    } else {
                        self.now + self.trip_ns + self.l2_lat
                    };
                    let ready = entry.ready_at.min(fresh);
                    if let Some(rec) = self.tel.tracer() {
                        // aux: the residual wait the demand access eats.
                        rec.late_arrival(
                            self.now as u64,
                            line.raw(),
                            entry.stream,
                            (ready - self.now).max(0.0) as u64,
                        );
                    }
                    (ready, true)
                }
            }
            None => {
                report.full_misses += 1;
                if self.tel.has_tracer() {
                    let knows = self.prefetcher.knows_line(line);
                    if let Some(rec) = self.tel.tracer() {
                        rec.demand_miss(self.now as u64, line.raw(), knows);
                    }
                }
                if l2.access(line) {
                    (self.now + self.l2_lat, false)
                } else {
                    l2.insert(line);
                    // MSHR-bounded demand access: merge with an in-flight
                    // miss, otherwise wait for a free register and transfer.
                    let completion = match self.mshrs.completion_of(line) {
                        Some(c) => c,
                        None => {
                            while self.mshrs.in_flight() == self.mshrs.capacity() {
                                let wait = self
                                    .mshrs
                                    .earliest_completion()
                                    .expect("full MSHRs imply an entry");
                                self.now = wait.max(self.now);
                                self.mshrs.retire_until(self.now);
                            }
                            let done = dram.request(self.now, LINE_BYTES, TrafficCategory::Demand);
                            self.mshrs
                                .allocate(line, done)
                                .expect("a register was just freed")
                        }
                    };
                    (completion, false)
                }
            }
        };
        self.tel
            .record(self.mshr_hist, self.mshrs.in_flight() as u64);
        if ev.dependent {
            // The next instruction consumes this load's value: serialize.
            let stall = (data_ready - self.now).max(0.0);
            report.dependent_stall_ns += stall;
            self.now += stall;
        } else {
            // Overlapable: must merely complete before it blocks
            // retirement, one ROB's worth of instructions from now.
            self.rob_q
                .push_back((report.instructions + self.rob, data_ready));
        }
        // Drive the prefetcher.
        self.sink.clear();
        let trigger = if covered {
            TriggerEvent::prefetch_hit(ev.pc, line)
        } else {
            TriggerEvent::miss(ev.pc, line)
        };
        self.prefetcher.on_trigger(&trigger, &mut *self.sink);
        let now_ts = self.now as u64;
        match self.tel.tracer() {
            Some(rec) => {
                for &tag in &self.sink.replaced {
                    rec.eit_replace(now_ts, tag.raw());
                }
                for &stream in &self.sink.discarded_streams {
                    self.buffer.discard_stream_with(stream, |e| {
                        rec.evict_unused(now_ts, e.line.raw(), e.stream);
                    });
                }
            }
            None => {
                for &stream in &self.sink.discarded_streams {
                    self.buffer.discard_stream(stream);
                }
            }
        }
        // Metadata traffic contends for the channel right away.
        for _ in 0..self.sink.meta_read_blocks {
            if let Some(rec) = self.tel.tracer() {
                rec.meta_start(now_ts, 1);
            }
            let done = dram.request(self.now, LINE_BYTES, TrafficCategory::MetadataRead);
            // Queueing makes the round trip exceed the raw 45 ns.
            let trip = (done - self.now).max(0.0) as u64;
            self.tel.record(self.meta_lat_hist, trip);
            if let Some(rec) = self.tel.tracer() {
                rec.meta_end(done as u64, trip);
            }
        }
        for _ in 0..self.sink.meta_write_blocks {
            dram.request(self.now, LINE_BYTES, TrafficCategory::MetadataWrite);
        }
        for req in &self.sink.requests {
            if let Some(rec) = self.tel.tracer() {
                rec.issue(now_ts, req.line.raw(), req.stream, req.delay_trips);
            }
            if self.l1.contains(req.line) {
                if let Some(rec) = self.tel.tracer() {
                    // Already in the L1: the engine drops the request.
                    rec.drop_unbuffered(now_ts, req.line.raw(), req.stream, 2);
                }
                continue;
            }
            // Serial metadata trips delay the issue; an LLC-resident block
            // fills the buffer quickly, others queue on the channel. The
            // block goes only to the prefetch buffer near the L1-D
            // (§IV-D) — it does not allocate in the LLC, so wrong
            // prefetches cannot act as covert LLC warming.
            let issue_at = self.now + f64::from(req.delay_trips) * self.trip_ns;
            let arrival = if l2.contains(req.line) {
                issue_at + self.l2_lat
            } else {
                dram.request(issue_at, LINE_BYTES, TrafficCategory::Prefetch)
            };
            let outcome = self.buffer.insert(req.line, arrival, req.stream);
            if let Some(rec) = self.tel.tracer() {
                record_insert(rec, now_ts, req, outcome, arrival as u64);
            }
        }
        if self.tel.tick() {
            self.tel.snapshot(|row| {
                emit_timing_row(
                    row,
                    &self.report,
                    self.now,
                    &self.l1,
                    &self.buffer,
                    &self.mshrs,
                    dram,
                    &*self.prefetcher,
                )
            });
        }
    }

    /// Flushes the final partial telemetry epoch. Call once after the
    /// last [`CoreEngine::step`], while the shared channel is still in
    /// scope (it appears in the snapshot row).
    pub(crate) fn flush_telemetry(&mut self, dram: &Dram) {
        self.tel.flush(|row| {
            emit_timing_row(
                row,
                &self.report,
                self.now,
                &self.l1,
                &self.buffer,
                &self.mshrs,
                dram,
                &*self.prefetcher,
            )
        });
    }

    /// Drains retirement constraints and returns the finished report.
    /// `traffic` should be the share of channel traffic attributed to the
    /// core (for a single core, everything).
    pub(crate) fn finish(mut self, traffic: TrafficStats) -> TimingReport {
        // Drain in place (rather than `mem::take`) so the queue keeps its
        // capacity when it returns to the scratch pool.
        while let Some((_, done)) = self.rob_q.pop_front() {
            if done > self.now {
                self.report.independent_stall_ns += done - self.now;
                self.now = done;
            }
        }
        self.report.total_ns = self.now;
        self.report.traffic = traffic;
        if let Some((ns, instr, dep, indep, timely, late, full)) = self.measure_from {
            self.report.total_ns -= ns;
            self.report.instructions -= instr;
            self.report.dependent_stall_ns -= dep;
            self.report.independent_stall_ns -= indep;
            self.report.timely_hits -= timely;
            self.report.late_hits -= late;
            self.report.full_misses -= full;
        }
        self.report
    }
}

/// Runs `prefetcher` over `trace` under the interval timing model, with
/// synthetic fills from the other (unsimulated) cores keeping the shared
/// LLC under pressure. For real multi-core sharing see
/// [`crate::multicore::run_multicore`].
pub fn run_timing(
    system: &SystemConfig,
    trace: &[AccessEvent],
    prefetcher: &mut dyn Prefetcher,
) -> TimingReport {
    run_timing_warmed(system, trace, prefetcher, 0)
}

/// [`run_timing`] with a warmup prefix excluded from all metrics
/// (time, instructions, stalls, hit classes). Traffic remains cumulative,
/// as a shared channel's counters would be.
pub fn run_timing_warmed(
    system: &SystemConfig,
    trace: &[AccessEvent],
    prefetcher: &mut dyn Prefetcher,
    warmup: usize,
) -> TimingReport {
    run_timing_observed(system, trace, prefetcher, warmup, &mut Telemetry::off())
}

/// [`run_timing_warmed`] with a telemetry handle: per-epoch snapshots of
/// the core, caches, MSHRs, and shared channel, plus metadata round-trip
/// latency and MSHR-occupancy histograms. The epoch clock ticks once per
/// L1 miss.
///
/// Observed and unobserved runs take the same span loop, in spans of the
/// effective [`crate::observe::batch_size`] events.
pub fn run_timing_observed(
    system: &SystemConfig,
    trace: &[AccessEvent],
    prefetcher: &mut dyn Prefetcher,
    warmup: usize,
    tel: &mut Telemetry,
) -> TimingReport {
    let span = crate::observe::batch_size() as usize;
    let mut run = TimingRun::new(system, prefetcher, tel, warmup, span, trace.len());
    run.feed(trace);
    run.finish()
}

/// [`run_timing_warmed`] in spans of `batch` events, ignoring the
/// process-wide knob. Reports are byte-identical at every span size; the
/// `domino-check` batch-parity oracle compares batch 1 with larger ones.
pub fn run_timing_with_batch(
    system: &SystemConfig,
    trace: &[AccessEvent],
    prefetcher: &mut dyn Prefetcher,
    warmup: usize,
    batch: u32,
) -> TimingReport {
    let mut tel = Telemetry::off();
    let mut run = TimingRun::new(
        system,
        prefetcher,
        &mut tel,
        warmup,
        batch as usize,
        trace.len(),
    );
    run.feed(trace);
    run.finish()
}

/// [`run_timing_with_batch`] over an [`EventSource`]: the same span loop
/// fed one source chunk at a time, so the report is byte-identical to the
/// cached-slice run while only the source's chunk buffers and the current
/// span are ever resident.
///
/// # Errors
///
/// Propagates decode/I/O errors from the source.
pub fn run_timing_streamed(
    system: &SystemConfig,
    source: &mut dyn EventSource,
    prefetcher: &mut dyn Prefetcher,
    warmup: usize,
    batch: usize,
) -> Result<TimingReport, TraceFileError> {
    let mut tel = Telemetry::off();
    let expected = usize::try_from(source.total_events()).unwrap_or(usize::MAX);
    let mut run = TimingRun::new(system, prefetcher, &mut tel, warmup, batch, expected);
    let mut chunk = Vec::new();
    loop {
        let n = source.next_chunk(&mut chunk)?;
        if n == 0 {
            break;
        }
        run.feed(&chunk[..n]);
    }
    Ok(run.finish())
}

/// How many pollution inserts ahead the span loop prefetches the LLC
/// slab. Far enough to cover a host-memory round trip, close enough that
/// the touched sets are still cached when the insert runs.
const POLLUTE_PREFETCH_AHEAD: usize = 16;

/// The single-core timing model's one loop: a [`CoreEngine`] over the
/// LLC and channel, fed in spans. Per span, one pass precomputes the
/// cross-core pollution RNG chain (it depends on nothing else) and
/// host-prefetches the LLC sets it will touch — the pollution lines are
/// uniform over a slab far larger than the host's L1, so each insert
/// would otherwise stall on a cold set — then every event steps in
/// order. The chain carries across spans, so span boundaries are
/// unobservable in the simulated state: cached and streamed runs share
/// this driver and agree byte for byte at any span size.
struct TimingRun<'a> {
    engine: CoreEngine<'a>,
    l2: scratch::Pooled<SetAssocCache>,
    dram: Dram,
    /// Cross-core LLC pollution: two fills per other core per event.
    /// Server consolidation keeps the shared LLC under constant pressure
    /// (each core's miss rate matches ours, and instruction/OS
    /// footprints add more).
    pollute_state: u64,
    pollute_per_event: usize,
    /// The current span's pollution lines, reused across spans.
    pollute_lines: Vec<LineAddr>,
    warmup: usize,
    /// Events stepped so far: the absolute index of the next one.
    seen: usize,
    span: usize,
}

impl<'a> TimingRun<'a> {
    fn new(
        system: &SystemConfig,
        prefetcher: &'a mut dyn Prefetcher,
        tel: &'a mut Telemetry,
        warmup: usize,
        span: usize,
        expected_events: usize,
    ) -> Self {
        let l2 = scratch::cache(system.l2);
        prefetcher.reserve(expected_events);
        TimingRun {
            engine: CoreEngine::new(system, prefetcher, tel),
            l2,
            dram: Dram::new(system.memory),
            pollute_state: 0x1234_5678_9abc_def1,
            pollute_per_event: 2 * (system.cores - 1) as usize,
            pollute_lines: Vec::new(),
            warmup,
            seen: 0,
            span: span.max(1),
        }
    }

    /// Steps the run's next `events` in spans that break at the span size
    /// and at the warmup boundary, so the measurement mark lands just
    /// before event `warmup`.
    fn feed(&mut self, events: &[AccessEvent]) {
        let mut off = 0;
        while off < events.len() {
            let s = self.seen;
            let mut len = (events.len() - off).min(self.span);
            if s < self.warmup && s + len > self.warmup {
                len = self.warmup - s;
            }
            if s == self.warmup && self.warmup > 0 {
                self.engine.mark_measurement_start();
            }
            self.step_span(&events[off..off + len]);
            off += len;
            self.seen = s + len;
        }
    }

    /// Extends the pollution chain for `events.len()` events,
    /// host-prefetches the touched LLC sets, then steps each event after
    /// its pollution inserts.
    fn step_span(&mut self, events: &[AccessEvent]) {
        let per_event = self.pollute_per_event;
        let state = &mut self.pollute_state;
        self.pollute_lines.clear();
        for _ in 0..events.len() * per_event {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            self.pollute_lines
                .push(LineAddr::new(0x0F00_0000_0000 | (*state & 0xFFFF_FFFF)));
        }
        for l in self.pollute_lines.iter().take(POLLUTE_PREFETCH_AHEAD) {
            self.l2.prefetch_set(*l);
        }
        for (off, ev) in events.iter().enumerate() {
            let base = off * per_event;
            for (k, &line) in self.pollute_lines[base..base + per_event]
                .iter()
                .enumerate()
            {
                if let Some(&ahead) = self.pollute_lines.get(base + k + POLLUTE_PREFETCH_AHEAD) {
                    self.l2.prefetch_set(ahead);
                }
                self.l2.insert(line);
            }
            self.engine.step(ev, &mut self.l2, &mut self.dram);
        }
    }

    /// Flushes the partial telemetry epoch and returns the report.
    fn finish(mut self) -> TimingReport {
        self.engine.flush_telemetry(&self.dram);
        let traffic = self.dram.traffic();
        self.engine.finish(traffic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_mem::interface::NoPrefetcher;
    use domino_prefetchers::{Stms, TemporalConfig};
    use domino_trace::addr::{Addr, Pc};
    use domino_trace::workload::catalog;

    fn system() -> SystemConfig {
        SystemConfig::paper()
    }

    /// Pointer-chase-like loop whose footprint exceeds the 4 MB LLC, so
    /// repeated passes still miss all the way to memory.
    fn chase_trace(reps: usize, len: u64, dependent: bool) -> Vec<AccessEvent> {
        let mut out = Vec::new();
        for _ in 0..reps {
            for i in 0..len {
                let mut ev = AccessEvent::read(Pc::new(4), Addr::new((i * 131 + 7) << 6));
                ev.gap_insts = 20;
                ev.dependent = dependent;
                out.push(ev);
            }
        }
        out
    }

    #[test]
    fn dependent_chains_are_slower_than_independent() {
        let mut p1 = NoPrefetcher;
        let dep = run_timing(&system(), &chase_trace(2, 100_000, true), &mut p1);
        let mut p2 = NoPrefetcher;
        let indep = run_timing(&system(), &chase_trace(2, 100_000, false), &mut p2);
        assert!(
            dep.total_ns > indep.total_ns * 1.5,
            "dependent {} vs independent {}",
            dep.total_ns,
            indep.total_ns
        );
    }

    #[test]
    fn prefetching_speeds_up_repeating_dependent_misses() {
        let trace = chase_trace(4, 100_000, true);
        let mut base = NoPrefetcher;
        let baseline = run_timing(&system(), &trace, &mut base);
        let mut stms = Stms::new(TemporalConfig {
            sampling_probability: 1.0,
            stream_end_detection: false,
            ..TemporalConfig::default()
        });
        let with = run_timing(&system(), &trace, &mut stms);
        let speedup = with.speedup_over(&baseline);
        assert!(speedup > 1.05, "speedup {speedup}");
        assert!(with.timely_hits + with.late_hits > 0);
    }

    #[test]
    fn traffic_includes_metadata_for_temporal_prefetchers() {
        let trace = chase_trace(2, 80_000, true);
        let mut stms = Stms::new(TemporalConfig::default());
        let r = run_timing(&system(), &trace, &mut stms);
        assert!(r.traffic.metadata_read > 0);
        assert!(r.traffic.demand > 0);
    }

    #[test]
    fn bandwidth_stays_below_channel_peak() {
        let spec = catalog::web_apache();
        let trace: Vec<_> = spec.generator(2).take(40_000).collect();
        let mut p = NoPrefetcher;
        let r = run_timing(&system(), &trace, &mut p);
        assert!(r.bandwidth_gbps() < system().memory.bandwidth_bytes_per_ns);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn warmed_timing_subtracts_the_prefix() {
        let trace = chase_trace(2, 50_000, true);
        let mut p1 = NoPrefetcher;
        let full = run_timing(&system(), &trace, &mut p1);
        let mut p2 = NoPrefetcher;
        let warmed = super::run_timing_warmed(&system(), &trace, &mut p2, 50_000);
        assert!(warmed.total_ns < full.total_ns);
        assert!(warmed.instructions < full.instructions);
        // The measured window is the second (warmed) pass: roughly half
        // the instructions.
        assert!(
            (warmed.instructions as f64 / full.instructions as f64 - 0.5).abs() < 0.05,
            "measured {} of {}",
            warmed.instructions,
            full.instructions
        );
    }

    #[test]
    fn timing_is_byte_identical_at_any_span_size() {
        let spec = catalog::oltp();
        let trace: Vec<_> = spec.generator(13).take(25_000).collect();
        for warmup in [0usize, 9_000] {
            let mut one_p = Stms::new(TemporalConfig::default());
            let one = run_timing_with_batch(&system(), &trace, &mut one_p, warmup, 1);
            for batch in [2u32, 7, 64, 4096] {
                let mut p = Stms::new(TemporalConfig::default());
                let spanned = run_timing_with_batch(&system(), &trace, &mut p, warmup, batch);
                assert_eq!(
                    format!("{one:?}"),
                    format!("{spanned:?}"),
                    "batch {batch}, warmup {warmup}"
                );
            }
        }
    }

    #[test]
    fn instructions_counted() {
        let trace = chase_trace(1, 100, false);
        let mut p = NoPrefetcher;
        let r = run_timing(&system(), &trace, &mut p);
        assert_eq!(r.instructions, 100 * 21);
    }
}
