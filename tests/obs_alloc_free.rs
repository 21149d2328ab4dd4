//! Proof that the observability hot path is zero-allocation after
//! warmup (see DESIGN.md, "Live observability plane").
//!
//! A counting `#[global_allocator]` wraps the system allocator in this
//! test binary only (the same harness as `alloc_free.rs`). The metrics
//! ring and span ring preallocate every slab at construction, so
//! sampling an interval row or recording a span must cost zero
//! allocations — not amortized-zero, zero — no matter how many times
//! the ring wraps. Serialization (`to_bytes`) allocates and is only
//! ever called at flush points, never per batch.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use domino_telemetry::{MetricSpec, MetricsRing, SpanRecord, SpanRing, SpanSampler};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Counted per thread, so tests
    /// running concurrently on sibling threads never add to each other's
    /// counts.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with` fails only while the thread's locals are torn down, and
    // no measured run allocates then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// The harness itself must have teeth.
#[test]
fn counting_allocator_sees_allocations() {
    let ((), allocs) = counted(|| {
        let v: Vec<Box<u64>> = (0..50).map(Box::new).collect();
        assert_eq!(v.len(), 50);
    });
    assert!(allocs >= 50, "only {allocs} allocations counted");
}

#[test]
fn metrics_ring_sampling_allocates_nothing() {
    // Construction allocates (name strings, slabs) — that is warmup.
    let mut ring = MetricsRing::new(
        64,
        vec![
            MetricSpec::counter("events"),
            MetricSpec::counter("batches"),
            MetricSpec::counter("shed"),
            MetricSpec::gauge("queue_depth"),
            MetricSpec::gauge("footprint_bytes"),
        ],
    );
    let mut values = [0u64; 5];
    // 1000 samples over a 64-row ring: wraps ~15 times. Every sample
    // must be pure slab writes.
    let ((), allocs) = counted(|| {
        for i in 1..=1000u64 {
            values[0] = i * 32;
            values[1] = i;
            values[2] = i / 7;
            values[3] = i % 9;
            values[4] = 4096 + i;
            ring.sample(i * 32, &values);
        }
    });
    assert_eq!(
        allocs, 0,
        "{allocs} allocations across 1000 interval samples — the metrics \
         ring must be pure slab writes after construction"
    );
    assert!(ring.wrapped());
    assert_eq!(ring.totals()[0], 32_000);
}

#[test]
fn span_ring_recording_allocates_nothing() {
    let sampler = SpanSampler::new(4, 0xD0);
    let mut ring = SpanRing::new(128);
    let ((), allocs) = counted(|| {
        for seq in 0..2000u64 {
            // The sampler decision itself is on the hot path too.
            if sampler.sampled(seq % 13, seq) {
                ring.record(SpanRecord {
                    tenant: seq % 13,
                    seq,
                    shard: 0,
                    events: 32,
                    submit_ns: seq * 100,
                    enqueue_ns: seq * 100 + 1,
                    dequeue_ns: seq * 100 + 5,
                    step_ns: seq * 100 + 80,
                    reply_ns: seq * 100 + 90,
                });
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "{allocs} allocations across 2000 sampled span decisions — span \
         recording must be a slot overwrite"
    );
    assert!(!ring.is_empty());
}
