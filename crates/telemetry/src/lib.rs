//! Run telemetry for the Domino reproduction.
//!
//! The paper's headline numbers (coverage, accuracy, timeliness) are
//! end-of-run aggregates; this crate records *when* those numbers happen
//! inside a run: a prefetcher warming up, thrashing its index tables, or
//! degrading under pressure. Three primitives:
//!
//! * **counters** — named `u64`s emitted through the [`CounterSink`]
//!   trait. The hot path only bumps plain struct fields; names are
//!   attached at the cold emit points (epoch boundaries and end of run),
//!   so recording allocates nothing per access;
//! * **[`FixedHistogram`]s** — fixed-bucket distributions (prefetch-to-use
//!   distance, metadata round-trip latency, MSHR occupancy). Buckets are
//!   registered once per run; recording is a bounds scan over a small
//!   static array;
//! * **epoch series** — every `epoch` ticks the engine snapshots its
//!   cumulative counters into a row, yielding a per-run time series of
//!   coverage / accuracy / traffic per component. The engines tick once
//!   per L1 miss (a triggering event), not per access: L1 hits never
//!   reach the prefetcher. With an epoch of 1000 on STMS (degree 4)
//!   over 20k Web Search events (seed 42, no warmup), rows fall at
//!   `l1.misses` = 1000/2000/3000 while `accesses` reads
//!   1057/2161/3254.
//!
//! A [`Telemetry`] handle is either **off** (the default everywhere: a
//! single branch per access, nothing recorded) or **on** with a given
//! epoch length. Finished runs export as a schema-versioned
//! [`RunReport`] (JSON in, JSON out — [`json`] is a dependency-free
//! parser for the report CLI and tests).
//!
//! ```
//! use domino_telemetry::{Telemetry, DISTANCE_BOUNDS};
//!
//! let mut tel = Telemetry::with_epoch(100);
//! let hist = tel.register_histogram("distance", DISTANCE_BOUNDS);
//! for i in 0..250u64 {
//!     tel.record(hist, i % 17);
//!     if tel.tick() {
//!         tel.snapshot(|row| row.counter("accesses", i + 1));
//!     }
//! }
//! let report = tel.finish(|row| row.counter("accesses", 250));
//! assert_eq!(report.epochs.len(), 3, "two full epochs + the partial tail");
//! ```

/// Whether the named injected bug is active. Only compiled under
/// `--cfg domino_mutate` (the `domino-check --self-test` build); the
/// selected mutation comes from the `DOMINO_MUTATE` environment
/// variable, so one mutant binary can replay every known bug.
#[cfg(domino_mutate)]
pub(crate) fn mutate_active(name: &str) -> bool {
    std::env::var("DOMINO_MUTATE")
        .map(|v| v == name)
        .unwrap_or(false)
}

pub mod hist;
pub mod json;
pub mod report;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use hist::FixedHistogram;
pub use report::{EpochDelta, RunReport, SCHEMA};
pub use span::{SpanFile, SpanRecord, SpanRing, SpanSampler};
pub use timeseries::{MetricKind, MetricSpec, MetricsRing, RingFile};
pub use trace::{Attribution, FlightRecorder, TraceFile, TraceMeta, DEFAULT_TRACE_CAPACITY};

/// Receiver for named counters.
///
/// Implemented by the snapshot rows of [`Telemetry`] and usable as a
/// plain callback; components (caches, DRAM, MSHRs, prefetchers) expose
/// an `emit_counters(&self, &mut dyn CounterSink)` method so the engine
/// can harvest their internals without the components depending on the
/// simulator.
pub trait CounterSink {
    /// Record `value` under `name`. Names are dot-namespaced by
    /// convention (`l1.hits`, `dram.bytes.demand`, `eit.lookups`).
    fn counter(&mut self, name: &str, value: u64);
}

impl<F: FnMut(&str, u64)> CounterSink for F {
    fn counter(&mut self, name: &str, value: u64) {
        self(name, value)
    }
}

/// Bucket upper bounds (inclusive) for prefetch-to-use distance in
/// demand accesses; one overflow bucket past the last bound.
pub const DISTANCE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096];

/// Bucket upper bounds (inclusive) for metadata round-trip latency in
/// nanoseconds (the paper's memory is 45 ns + queueing).
pub const LATENCY_BOUNDS: &[u64] = &[45, 50, 60, 80, 120, 200, 400, 800, 1600];

/// Bucket upper bounds (inclusive) for MSHR occupancy (Table I: 32
/// L1-D MSHRs).
pub const MSHR_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 24, 31];

/// Handle a run threads through the engines. Off by default: every
/// recording method starts with one predictable branch.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Ticks per epoch; 0 = telemetry off.
    epoch_len: u64,
    /// Ticks since the last snapshot.
    ticks: u64,
    /// Column names, fixed by the first snapshot.
    fields: Vec<String>,
    /// Cumulative counter rows, one per epoch.
    epochs: Vec<Vec<u64>>,
    /// Registered histograms.
    hists: Vec<(String, FixedHistogram)>,
    /// Optional flight recorder ([`trace`] module); boxed so the common
    /// tracer-off handle stays small.
    tracer: Option<Box<FlightRecorder>>,
}

/// Opaque histogram id returned by [`Telemetry::register_histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

impl Telemetry {
    /// A disabled handle: recording is a no-op, [`Telemetry::finish`]
    /// yields an empty report.
    pub fn off() -> Self {
        Telemetry {
            epoch_len: 0,
            ticks: 0,
            fields: Vec::new(),
            epochs: Vec::new(),
            hists: Vec::new(),
            tracer: None,
        }
    }

    /// An enabled handle snapshotting every `epoch` ticks (L1 misses, in
    /// the engines).
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero (zero means "off"; use
    /// [`Telemetry::off`] for that).
    pub fn with_epoch(epoch: u64) -> Self {
        assert!(epoch > 0, "epoch length must be positive");
        Telemetry {
            epoch_len: epoch,
            ..Telemetry::off()
        }
    }

    /// Resolves a handle from the `DOMINO_EPOCH` environment variable:
    /// unset or `0` → off, a positive integer → that epoch length. When
    /// `DOMINO_TRACE` is set to a positive event count, the handle also
    /// carries a [`FlightRecorder`] of that ring capacity (tracing works
    /// with epochs off: the handle stays `is_on() == false` but records
    /// events).
    pub fn from_env() -> Self {
        let mut tel = match std::env::var("DOMINO_EPOCH")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            Some(n) if n > 0 => Telemetry::with_epoch(n),
            _ => Telemetry::off(),
        };
        if let Some(cap) = std::env::var("DOMINO_TRACE")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&n| n > 0)
        {
            tel.enable_trace(cap as usize);
        }
        tel
    }

    /// Attaches a [`FlightRecorder`] keeping the most recent `capacity`
    /// events. Independent of the epoch machinery: a trace-only handle
    /// reports `is_on() == false` and emits no epoch rows.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(Box::new(FlightRecorder::new(capacity)));
    }

    /// The flight recorder, if tracing is enabled. Engines emit through
    /// this so the tracer-off path is one branch:
    ///
    /// ```
    /// # let mut tel = domino_telemetry::Telemetry::off();
    /// if let Some(rec) = tel.tracer() {
    ///     rec.issue(0, 42, None, 1);
    /// }
    /// ```
    #[inline]
    pub fn tracer(&mut self) -> Option<&mut FlightRecorder> {
        self.tracer.as_deref_mut()
    }

    /// Whether a flight recorder is attached.
    #[inline]
    pub fn has_tracer(&self) -> bool {
        self.tracer.is_some()
    }

    /// Detaches and returns the flight recorder (call before
    /// [`Telemetry::finish`], which drops it).
    pub fn take_tracer(&mut self) -> Option<FlightRecorder> {
        self.tracer.take().map(|b| *b)
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.epoch_len > 0
    }

    /// The epoch length in ticks (0 when off).
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// Registers a histogram with the given inclusive upper `bounds`
    /// (one overflow bucket is added past the last bound). Returns an id
    /// for [`Telemetry::record`]; on a disabled handle the id is inert.
    pub fn register_histogram(&mut self, name: &str, bounds: &[u64]) -> HistId {
        if !self.is_on() {
            return HistId(usize::MAX);
        }
        self.hists
            .push((name.to_string(), FixedHistogram::new(bounds)));
        HistId(self.hists.len() - 1)
    }

    /// Records one histogram sample.
    #[inline]
    pub fn record(&mut self, id: HistId, value: u64) {
        if let Some((_, h)) = self.hists.get_mut(id.0) {
            h.record(value);
        }
    }

    /// Counts one tick; returns `true` when an epoch boundary was just
    /// crossed and the caller should [`Telemetry::snapshot`].
    #[inline]
    pub fn tick(&mut self) -> bool {
        if self.epoch_len == 0 {
            return false;
        }
        self.ticks += 1;
        self.ticks == self.epoch_len
    }

    /// Appends one cumulative snapshot row. `emit` receives a
    /// [`CounterSink`] and must report the same counters in the same
    /// order on every call of the run (the first snapshot fixes the
    /// column set).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when a later snapshot emits a column set
    /// different from the first snapshot's.
    pub fn snapshot(&mut self, emit: impl FnOnce(&mut dyn CounterSink)) {
        if !self.is_on() {
            return;
        }
        self.ticks = 0;
        let first = self.epochs.is_empty();
        let mut row = Vec::with_capacity(self.fields.len());
        {
            let mut sink = |name: &str, value: u64| {
                if first {
                    self.fields.push(name.to_string());
                } else {
                    debug_assert_eq!(
                        self.fields.get(row.len()).map(String::as_str),
                        Some(name),
                        "snapshot columns must be stable across epochs"
                    );
                }
                row.push(value);
            };
            emit(&mut sink);
        }
        debug_assert_eq!(row.len(), self.fields.len(), "ragged snapshot row");
        self.epochs.push(row);
    }

    /// Flushes a final partial epoch if any ticks arrived since the
    /// last boundary (so non-divisible trace lengths lose nothing), or an
    /// initial row when no boundary was ever crossed. Engines call this
    /// once at the end of a run, while they still hold the components the
    /// emit closure reads; a later [`Telemetry::finish`] adds no extra
    /// row.
    pub fn flush(&mut self, emit: impl FnOnce(&mut dyn CounterSink)) {
        if self.is_on() && (self.ticks > 0 || self.epochs.is_empty()) {
            self.snapshot(emit);
        }
    }

    /// Closes the run: [`Telemetry::flush`]es any pending partial epoch
    /// and returns the collected series and histograms as an unlabelled
    /// [`RunReport`] (fill in the `workload` / `component` / scale fields
    /// before export).
    pub fn finish(mut self, emit: impl FnOnce(&mut dyn CounterSink)) -> RunReport {
        self.flush(emit);
        RunReport {
            schema: SCHEMA.to_string(),
            workload: String::new(),
            component: String::new(),
            kind: String::new(),
            events: 0,
            seed: 0,
            warmup: 0,
            epoch_accesses: self.epoch_len,
            fields: self.fields,
            epochs: self.epochs,
            histograms: self.hists,
            counters: Vec::new(),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing() {
        let mut tel = Telemetry::off();
        let id = tel.register_histogram("h", &[1, 2]);
        tel.record(id, 1);
        assert!(!tel.tick());
        tel.snapshot(|row| row.counter("x", 1));
        let r = tel.finish(|row| row.counter("x", 2));
        assert!(r.epochs.is_empty());
        assert!(r.fields.is_empty());
        assert!(r.histograms.is_empty());
    }

    #[test]
    fn epochs_snapshot_on_boundaries() {
        let mut tel = Telemetry::with_epoch(10);
        let mut total = 0u64;
        for i in 0..30u64 {
            total = i + 1;
            if tel.tick() {
                tel.snapshot(|row| row.counter("accesses", total));
            }
        }
        let r = tel.finish(|row| row.counter("accesses", total));
        assert_eq!(r.fields, vec!["accesses"]);
        assert_eq!(r.epochs, vec![vec![10], vec![20], vec![30]]);
    }

    #[test]
    fn partial_tail_epoch_is_flushed() {
        // 25 ticks at epoch 10: rows at 10, 20, and the tail at 25.
        let mut tel = Telemetry::with_epoch(10);
        let mut seen = 0u64;
        for i in 0..25u64 {
            seen = i + 1;
            if tel.tick() {
                let s = seen;
                tel.snapshot(move |row| row.counter("n", s));
            }
        }
        let r = tel.finish(|row| row.counter("n", seen));
        assert_eq!(r.epochs, vec![vec![10], vec![20], vec![25]]);
    }

    #[test]
    fn empty_run_still_gets_one_row() {
        let tel = Telemetry::with_epoch(10);
        let r = tel.finish(|row| row.counter("n", 0));
        assert_eq!(r.epochs, vec![vec![0]]);
    }

    #[test]
    fn histograms_collect() {
        let mut tel = Telemetry::with_epoch(5);
        let id = tel.register_histogram("d", &[1, 4]);
        tel.record(id, 0);
        tel.record(id, 3);
        tel.record(id, 100);
        let r = tel.finish(|row| row.counter("n", 0));
        assert_eq!(r.histograms.len(), 1);
        assert_eq!(r.histograms[0].1.counts(), &[1, 1, 1]);
    }

    #[test]
    fn from_env_honours_the_knob() {
        // Off when unset or zero; the positive path is covered via
        // with_epoch (mutating the environment from tests races the
        // parallel test harness).
        std::env::remove_var("DOMINO_EPOCH");
        assert!(!Telemetry::from_env().is_on());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epoch_panics() {
        Telemetry::with_epoch(0);
    }

    #[test]
    fn tracer_is_independent_of_epochs() {
        let mut tel = Telemetry::off();
        assert!(tel.tracer().is_none());
        assert!(!tel.has_tracer());
        tel.enable_trace(16);
        assert!(!tel.is_on(), "trace-only handles emit no epoch rows");
        tel.tracer().expect("tracer on").demand_miss(0, 7, false);
        let rec = tel.take_tracer().expect("detachable");
        assert_eq!(rec.attribution().demand_misses, 1);
        assert!(!tel.has_tracer(), "take_tracer leaves the handle bare");
    }
}
