//! Outside-in layer timers: forwarding wrappers around the simulator's
//! public layer interfaces.
//!
//! Each wrapper forwards every call unchanged and adds the host time
//! spent inside the forwarded call to a [`LayerClock`]. Nothing inside
//! the simulator knows it is being watched, so a wrapped run takes the
//! same code path as a bare one; the benchmark proves this by comparing
//! the digests of traced and untraced runs.
//!
//! * [`TimedPrefetcher`] times [`Prefetcher::on_trigger`] (the timing
//!   engines call it per trigger) and [`Prefetcher::train_predict_batch`]
//!   (the coverage engine calls it per staged chunk);
//! * [`TimedBatch`] times [`TriggerBatch::next`], inside which the
//!   coverage engine applies the previous trigger's buffer fills and
//!   discards;
//! * [`TimedSource`] times [`EventSource::next_chunk`], i.e. how long
//!   the consumer waits on the trace decoder.
//!
//! Wrappers accumulate into plain fields and settle into their shared
//! [`Clocks`] when dropped: engines that take prefetchers by value (the
//! multi-core model) drop them before returning, so reading the clocks
//! after the run always sees every call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use domino_mem::interface::{CollectSink, PrefetchSink, Prefetcher, TriggerBatch, TriggerEvent};
use domino_telemetry::CounterSink;
use domino_trace::addr::{LineAddr, Pc};
use domino_trace::event::AccessEvent;
use domino_trace::stream::{EventSource, TraceFileError};

/// Accumulated host time and call count of one layer boundary.
#[derive(Debug, Default)]
pub struct LayerClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl LayerClock {
    fn settle(&self, ns: u64, calls: u64) {
        // Statistics only: nothing else is published through them.
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(calls, Ordering::Relaxed);
    }

    /// Host seconds spent inside the layer.
    pub fn secs(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Calls that crossed the boundary.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// The clocks one traced phase shares between its wrappers.
#[derive(Debug, Default)]
pub struct Clocks {
    /// [`Prefetcher::on_trigger`].
    pub trigger: LayerClock,
    /// [`Prefetcher::train_predict_batch`], including the `next` calls
    /// made from inside it.
    pub batch: LayerClock,
    /// [`TriggerBatch::next`] calls that resolved a trigger or closed
    /// the batch.
    pub next: LayerClock,
    /// Triggers resolved by [`TriggerBatch::next`] (its calls minus one
    /// closing call per batch).
    pub batch_triggers: AtomicU64,
    /// [`EventSource::next_chunk`].
    pub chunk: LayerClock,
}

impl Clocks {
    /// A fresh, shareable set of zeroed clocks.
    pub fn shared() -> Arc<Clocks> {
        Arc::new(Clocks::default())
    }

    /// Triggers the coverage engine handed to the prefetcher.
    pub fn coverage_triggers(&self) -> u64 {
        self.batch_triggers.load(Ordering::Relaxed)
    }
}

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Local accumulator, settled into a [`LayerClock`] on drop.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    ns: u64,
    calls: u64,
}

impl Tally {
    fn add(&mut self, t0: Instant) {
        self.ns += ns_since(t0);
        self.calls += 1;
    }
}

/// A prefetcher that forwards to `inner` and times its hot entry points.
pub struct TimedPrefetcher {
    inner: Box<dyn Prefetcher>,
    clocks: Arc<Clocks>,
    trigger: Tally,
    batch: Tally,
    next: Tally,
    batch_triggers: u64,
}

impl TimedPrefetcher {
    /// Wraps `inner`, settling its times into `clocks` when dropped.
    pub fn new(inner: Box<dyn Prefetcher>, clocks: Arc<Clocks>) -> Self {
        TimedPrefetcher {
            inner,
            clocks,
            trigger: Tally::default(),
            batch: Tally::default(),
            next: Tally::default(),
            batch_triggers: 0,
        }
    }
}

impl Drop for TimedPrefetcher {
    fn drop(&mut self) {
        self.clocks
            .trigger
            .settle(self.trigger.ns, self.trigger.calls);
        self.clocks.batch.settle(self.batch.ns, self.batch.calls);
        self.clocks.next.settle(self.next.ns, self.next.calls);
        self.clocks
            .batch_triggers
            .fetch_add(self.batch_triggers, Ordering::Relaxed);
    }
}

impl Prefetcher for TimedPrefetcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink) {
        let t0 = Instant::now();
        self.inner.on_trigger(event, sink);
        self.trigger.add(t0);
    }

    fn train_predict_batch(&mut self, batch: &mut dyn TriggerBatch, sink: &mut CollectSink) {
        let t0 = Instant::now();
        let mut timed = TimedBatch {
            inner: batch,
            next: Tally::default(),
            triggers: 0,
        };
        self.inner.train_predict_batch(&mut timed, sink);
        let (next, triggers) = (timed.next, timed.triggers);
        self.batch.add(t0);
        self.next.ns += next.ns;
        self.next.calls += next.calls;
        self.batch_triggers += triggers;
    }

    fn reserve(&mut self, expected_events: usize) {
        self.inner.reserve(expected_events);
    }

    fn emit_counters(&self, sink: &mut dyn CounterSink) {
        self.inner.emit_counters(sink);
    }

    fn footprint_bytes(&self) -> usize {
        self.inner.footprint_bytes()
    }

    fn knows_line(&self, line: LineAddr) -> bool {
        self.inner.knows_line(line)
    }
}

/// A trigger batch that forwards to the engine's and times `next`.
pub struct TimedBatch<'a> {
    inner: &'a mut dyn TriggerBatch,
    next: Tally,
    triggers: u64,
}

impl TriggerBatch for TimedBatch<'_> {
    fn pending_lines(&self) -> &[LineAddr] {
        self.inner.pending_lines()
    }

    fn pending_pcs(&self) -> &[Pc] {
        self.inner.pending_pcs()
    }

    fn next(&mut self, sink: &mut CollectSink) -> Option<TriggerEvent> {
        let t0 = Instant::now();
        let event = self.inner.next(sink);
        self.next.add(t0);
        self.triggers += u64::from(event.is_some());
        event
    }
}

/// An event source that forwards to `inner` and times `next_chunk`.
pub struct TimedSource<S: EventSource> {
    inner: S,
    clocks: Arc<Clocks>,
    chunk: Tally,
}

impl<S: EventSource> TimedSource<S> {
    /// Wraps `inner`, settling its times into `clocks` when dropped.
    pub fn new(inner: S, clocks: Arc<Clocks>) -> Self {
        TimedSource {
            inner,
            clocks,
            chunk: Tally::default(),
        }
    }
}

impl<S: EventSource> Drop for TimedSource<S> {
    fn drop(&mut self) {
        self.clocks.chunk.settle(self.chunk.ns, self.chunk.calls);
    }
}

impl<S: EventSource> EventSource for TimedSource<S> {
    fn total_events(&self) -> u64 {
        self.inner.total_events()
    }

    fn chunk_events(&self) -> u32 {
        self.inner.chunk_events()
    }

    fn next_chunk(&mut self, out: &mut Vec<AccessEvent>) -> Result<usize, TraceFileError> {
        let t0 = Instant::now();
        let n = self.inner.next_chunk(out);
        self.chunk.add(t0);
        n
    }

    fn peak_resident_bytes(&self) -> u64 {
        self.inner.peak_resident_bytes()
    }

    fn budget_bytes(&self) -> u64 {
        self.inner.budget_bytes()
    }
}
