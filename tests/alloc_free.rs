//! Proof of the zero-allocation steady-state invariant (see
//! `DESIGN.md`, "Data layout").
//!
//! A counting `#[global_allocator]` wraps the system allocator in this
//! test binary only. For every prefetcher in the paper roster (plus the
//! baseline) and both engines, we replay a repeating trace until every
//! structure has saturated — prefetcher metadata maps hold their full key
//! set, arenas are carved — then measure the allocation count of a short
//! run and of a 4× longer run. If the event loop allocated per event, the
//! long run would show thousands more allocations; instead both runs
//! must cost the same per-run constant (report strings, one histogram,
//! the engine's own caches and buffers, at most one arena `reserve`
//! growth), which the delta comparison cancels out. That constant must
//! not depend on the thread a run starts on: a run builds its own state
//! and keeps none behind for the next run.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use domino_mem::interface::Prefetcher;
use domino_sim::{run_coverage, run_timing, System, SystemConfig};
use domino_trace::workload::catalog;
use domino_trace::AccessEvent;

/// Counts every allocation and reallocation (frees are irrelevant: the
/// invariant is about acquiring memory mid-run).
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

/// `base` repeated `reps` times: the repetition is what lets unbounded
/// metadata (index maps, the ISB arena's key set) saturate during warmup.
fn repeated(base: &[AccessEvent], reps: usize) -> Vec<AccessEvent> {
    let mut out = Vec::with_capacity(base.len() * reps);
    for _ in 0..reps {
        out.extend_from_slice(base);
    }
    out
}

/// Per-run constant overhead allowed in the delta comparison: at most one
/// `reserve` growth per arena-backed structure when the run extends an
/// already-large arena (ISB nodes, history-table ring).
const RESERVE_SLACK: u64 = 2;

/// Absolute per-run overhead ceiling (report name strings, the Figure 12
/// histogram, reserve growths). Orders of magnitude below one-per-event.
const PER_RUN_CEILING: u64 = 64;

#[derive(Clone, Copy, Debug)]
enum Engine {
    Coverage,
    Timing,
}

fn run_once(engine: Engine, sys: &SystemConfig, trace: &[AccessEvent], p: &mut dyn Prefetcher) {
    match engine {
        Engine::Coverage => {
            run_coverage(sys, trace, p);
        }
        Engine::Timing => {
            run_timing(sys, trace, p);
        }
    }
}

fn roster() -> Vec<System> {
    let mut systems = vec![System::Baseline];
    systems.extend(System::paper_roster());
    // The post-Domino rivals live outside the paper roster but hold the
    // same steady-state invariant: their slabs are fixed at build time
    // and their index maps saturate during warmup.
    systems.push(System::Pangloss);
    systems.push(System::Triangel);
    systems
}

fn assert_allocation_free(engine: Engine) {
    let sys = SystemConfig::paper();
    let base: Vec<AccessEvent> = catalog::oltp().generator(7).take(1500).collect();
    let small = repeated(&base, 2);
    let large = repeated(&base, 8);
    for system in roster() {
        let mut p = system.build(4);
        // Warmup: saturate metadata and carve arenas. Large first so the
        // small runs never see a structure at a new high-water mark.
        run_once(engine, &sys, &large, &mut *p);
        run_once(engine, &sys, &small, &mut *p);
        let ((), small_allocs) = counted(|| run_once(engine, &sys, &small, &mut *p));
        let ((), large_allocs) = counted(|| run_once(engine, &sys, &large, &mut *p));
        assert!(
            large_allocs <= small_allocs + RESERVE_SLACK,
            "{} / {engine:?}: {large_allocs} allocations over {} events vs \
             {small_allocs} over {} — the event loop allocates per event",
            system.label(),
            large.len(),
            small.len(),
        );
        assert!(
            small_allocs <= PER_RUN_CEILING,
            "{} / {engine:?}: {small_allocs} allocations in a warmed run \
             exceeds the per-run constant ceiling of {PER_RUN_CEILING}",
            system.label(),
        );
    }
}

/// A warmed run allocates no more on a fresh thread than on the thread
/// that warmed it: nothing a run relies on is kept per thread.
fn assert_no_per_thread_state(engine: Engine) {
    let sys = SystemConfig::paper();
    let base: Vec<AccessEvent> = catalog::oltp().generator(7).take(1500).collect();
    let trace = repeated(&base, 2);
    for system in roster() {
        let mut p = system.build(4);
        run_once(engine, &sys, &trace, &mut *p);
        run_once(engine, &sys, &trace, &mut *p);
        let ((), here) = counted(|| run_once(engine, &sys, &trace, &mut *p));
        let ((), fresh) = std::thread::scope(|s| {
            s.spawn(|| counted(|| run_once(engine, &sys, &trace, &mut *p)))
                .join()
                .expect("the run does not panic")
        });
        assert!(
            fresh <= here + RESERVE_SLACK,
            "{} / {engine:?}: {fresh} allocations on a fresh thread vs {here} \
             on the warmed one — the run depends on per-thread state",
            system.label(),
        );
    }
}

/// The harness itself must have teeth: a run that demonstrably allocates
/// per event must be counted as such.
#[test]
fn counting_allocator_sees_per_event_allocations() {
    let (boxes, allocs) = counted(|| (0..100).map(Box::new).collect::<Vec<Box<i32>>>());
    assert_eq!(boxes.len(), 100);
    assert!(allocs >= 100, "only {allocs} allocations counted");
}

#[test]
fn coverage_engine_is_allocation_free_per_event() {
    assert_allocation_free(Engine::Coverage);
}

#[test]
fn timing_engine_is_allocation_free_per_event() {
    assert_allocation_free(Engine::Timing);
}

#[test]
fn coverage_run_carries_no_per_thread_state() {
    assert_no_per_thread_state(Engine::Coverage);
}

#[test]
fn timing_run_carries_no_per_thread_state() {
    assert_no_per_thread_state(Engine::Timing);
}
