//! Byte-budget tests for [`domino_sim::trace_cache::TraceCache`]: the
//! cache must drop whole least-recently-used entries once resident bytes
//! exceed its budget, keep the entry it is handing out, and stay correct
//! under concurrent lookups. Each test builds its own cache, so the
//! tests share nothing and run in parallel.

use std::sync::{Arc, Barrier};

use domino_sim::trace_cache::TraceCache;
use domino_trace::workload::catalog;

const EVENT_BYTES: u64 = std::mem::size_of::<domino_trace::AccessEvent>() as u64;

#[test]
fn budget_evicts_lru_entries_and_keeps_the_newest() {
    // Room for roughly two 10k-event traces.
    let events = 10_000usize;
    let cache = TraceCache::new(Some(2 * events as u64 * EVENT_BYTES + 1024));
    // Distinct seeds → distinct entries of equal size.
    let a = cache.trace(&catalog::oltp(), events, 0xB0D6_0001);
    let b = cache.trace(&catalog::oltp(), events, 0xB0D6_0002);
    assert!(cache.resident_bytes() <= 2 * events as u64 * EVENT_BYTES + 1024);
    // A third entry pushes the total over budget: the oldest (a) must
    // go, the newest must stay resident.
    let c = cache.trace(&catalog::oltp(), events, 0xB0D6_0003);
    assert!(
        cache.resident_bytes() <= 2 * events as u64 * EVENT_BYTES + 1024,
        "resident {} bytes exceeds the budget",
        cache.resident_bytes()
    );
    // Held Arcs keep their traces alive and correct regardless of
    // eviction.
    assert_eq!(a.len(), events);
    assert_ne!(a[..], b[..]);
    // `c` was just inserted, so a repeat lookup still shares it ...
    let c2 = cache.trace(&catalog::oltp(), events, 0xB0D6_0003);
    assert!(Arc::ptr_eq(&c, &c2), "newest entry must survive eviction");
    // ... while the evicted key regenerates into a fresh allocation
    // with identical contents.
    let a2 = cache.trace(&catalog::oltp(), events, 0xB0D6_0001);
    assert!(
        !Arc::ptr_eq(&a, &a2),
        "oldest entry should have been evicted"
    );
    assert_eq!(a[..], a2[..]);
}

#[test]
fn tiny_budget_still_serves_every_request() {
    // Budget below a single trace: every lookup materializes, hands the
    // trace out, and the cache immediately sheds everything except the
    // entry in hand.
    let cache = TraceCache::new(Some(1));
    let events = 2_000usize;
    let threads = 8;
    let barrier = Barrier::new(threads);
    let traces: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (cache, barrier) = (&cache, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let trace = cache.trace(&catalog::web_search(), events, 0xC0FF_EE00 + t as u64);
                    assert_eq!(trace.len(), events);
                    trace
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no thread panicked"))
            .collect()
    });
    // All eight traces are alive in our hands; the cache itself keeps at
    // most one materialized entry (the most recent lookup's).
    assert!(
        cache.resident_entries() <= 1,
        "cache held more than the newest entry"
    );
    for (i, t) in traces.iter().enumerate() {
        let direct: Vec<_> = catalog::web_search()
            .generator(0xC0FF_EE00 + i as u64)
            .take(events)
            .collect();
        assert_eq!(&t[..], &direct[..], "seed {i} trace corrupted by eviction");
    }
}
