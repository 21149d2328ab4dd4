//! Caches of generated and file-backed workload traces.
//!
//! Figure runners used to call `spec.generator(seed).take(n)` afresh for
//! every (prefetcher × degree × sweep-point) cell — regenerating the
//! same 300k-event vector four or more times per figure and dozens of
//! times per full `figures` run. A [`TraceCache`] generates each distinct
//! `(spec, seed, events)` trace once and hands out `Arc<[AccessEvent]>`
//! clones, which are cheap to share across the [`crate::exec`] worker
//! threads (events are plain `Copy` data, so the slices are `Sync`).
//! [`shared_trace`] and [`shared_file_trace`] look up one process-wide
//! instance.
//!
//! Keys use the spec's `Debug` rendering: workload specs are plain
//! config structs whose debug output covers every field, so two specs
//! key equal exactly when they generate identical traces (this also
//! distinguishes the mutated specs of e.g. the MLP-sensitivity study).
//!
//! # Byte budget
//!
//! A cache built with a budget caps the resident bytes of its traces
//! (generated and file-backed alike); the process-wide one takes its cap
//! from `DOMINO_TRACE_CACHE_BYTES=N`. When a lookup pushes the total
//! over the cap, whole least-recently-used entries are dropped — never
//! partial traces — until the rest fit. Callers already holding an
//! `Arc` keep their trace; eviction only stops *new* lookups from
//! sharing it, so the cap bounds what the cache itself keeps alive.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use domino_trace::event::AccessEvent;
use domino_trace::rng::SimRng;
use domino_trace::stream::{TraceFileError, TraceReader};
use domino_trace::workload::WorkloadSpec;

type Key = (String, u64, usize);
type Cell = Arc<OnceLock<Arc<[AccessEvent]>>>;

/// One trace entry plus its LRU stamp (the cache's tick at last lookup).
struct TraceSlot {
    cell: Cell,
    stamp: u64,
}

/// The trace map with its LRU clock.
#[derive(Default)]
struct TraceLru {
    map: HashMap<Key, TraceSlot>,
    tick: u64,
}

impl TraceLru {
    /// Total bytes of the materialized traces in the map.
    fn resident_bytes(&self) -> u64 {
        self.map
            .values()
            .filter_map(|slot| slot.cell.get().map(trace_bytes))
            .sum()
    }
}

fn key_of(spec: &WorkloadSpec, events: usize, seed: u64) -> Key {
    (format!("{spec:?}"), seed, events)
}

fn trace_bytes(trace: &Arc<[AccessEvent]>) -> u64 {
    (trace.len() * std::mem::size_of::<AccessEvent>()) as u64
}

/// A least-recently-used cache of traces, optionally capped at a number
/// of resident bytes. Lookups from many threads share one
/// materialization per key.
pub struct TraceCache {
    lru: Mutex<TraceLru>,
    budget: Option<u64>,
}

impl TraceCache {
    /// An empty cache that keeps at most `budget` bytes of traces
    /// resident (`None` is unbounded).
    pub fn new(budget: Option<u64>) -> Self {
        TraceCache {
            lru: Mutex::default(),
            budget,
        }
    }

    /// Total bytes of materialized traces the cache currently keeps alive.
    pub fn resident_bytes(&self) -> u64 {
        self.lru.lock().expect("unpoisoned").resident_bytes()
    }

    /// Number of materialized trace entries currently cached.
    pub fn resident_entries(&self) -> usize {
        let lru = self.lru.lock().expect("unpoisoned");
        lru.map.values().filter(|s| s.cell.get().is_some()).count()
    }

    /// Fetches (or inserts) `key`'s cell and stamps it most-recently-used.
    fn touch(&self, key: Key) -> Cell {
        let mut lru = self.lru.lock().expect("unpoisoned");
        lru.tick += 1;
        let tick = lru.tick;
        let slot = lru.map.entry(key).or_insert_with(|| TraceSlot {
            cell: Cell::default(),
            stamp: 0,
        });
        slot.stamp = tick;
        Arc::clone(&slot.cell)
    }

    /// Drops least-recently-used materialized entries (whole traces,
    /// never partial) until the cache fits the byte budget. `keep` — the
    /// entry the caller just materialized — is never dropped: evicting
    /// the trace being handed out would defeat the sharing the cache
    /// exists for.
    fn enforce_budget(&self, keep: &Key) {
        let Some(budget) = self.budget else {
            return;
        };
        let mut lru = self.lru.lock().expect("unpoisoned");
        while lru.resident_bytes() > budget {
            // Oldest materialized entry other than `keep`. Cells still
            // generating are skipped: their size is unknown and their
            // generating thread holds the cell regardless.
            let victim = lru
                .map
                .iter()
                .filter(|(k, slot)| slot.cell.get().is_some() && *k != keep)
                .min_by_key(|(_, slot)| slot.stamp)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    lru.map.remove(&k);
                }
                None => return,
            }
        }
    }

    /// Returns the `events`-long trace of `spec` at `seed`, generating it
    /// at most once while it stays cached. Concurrent callers for the
    /// *same* key block only on that key's generation (the map lock is
    /// held just to fetch the cell), so distinct workloads generate in
    /// parallel.
    pub fn trace(&self, spec: &WorkloadSpec, events: usize, seed: u64) -> Arc<[AccessEvent]> {
        let key = key_of(spec, events, seed);
        let cell = self.touch(key.clone());
        let out = cell
            .get_or_init(|| spec.generator(seed).take(events).collect::<Vec<_>>().into())
            .clone();
        self.enforce_budget(&key);
        out
    }

    /// Returns up to `max_events` events of the `DMNOTRC1` file at
    /// `path`, decoded at most once while it stays cached and shared as
    /// an `Arc` slice — the file-backed analogue of [`TraceCache::trace`],
    /// letting thousands of service tenants window one decoded trace.
    /// Counts against the same byte budget (and LRU) as generated traces.
    ///
    /// `max_events = 0` means the whole file. Keyed by `(path,
    /// max_events)`; a file that changes on disk while cached is not
    /// re-read.
    ///
    /// # Errors
    ///
    /// Propagates the reader's open and decode errors.
    pub fn file_trace(
        &self,
        path: &Path,
        max_events: usize,
    ) -> Result<Arc<[AccessEvent]>, TraceFileError> {
        let load = || -> Result<Arc<[AccessEvent]>, TraceFileError> {
            let mut reader = TraceReader::open(path)?;
            let want = if max_events == 0 {
                usize::try_from(reader.events()).unwrap_or(usize::MAX)
            } else {
                max_events
            };
            let mut events: Vec<AccessEvent> = Vec::new();
            let mut chunk = Vec::new();
            for idx in 0..reader.chunk_count() {
                if events.len() >= want {
                    break;
                }
                reader.read_chunk_into(idx, &mut chunk)?;
                let take = chunk.len().min(want - events.len());
                events.extend_from_slice(&chunk[..take]);
            }
            Ok(events.into())
        };
        let key = (format!("file:{}", path.display()), 0, max_events);
        let cell = self.touch(key.clone());
        // `OnceLock::get_or_init` cannot fail out, so decode before
        // filling: a read error is returned (and retried next call),
        // never cached.
        let out = match cell.get() {
            Some(t) => t.clone(),
            None => {
                let fresh = load()?;
                cell.get_or_init(|| fresh).clone()
            }
        };
        self.enforce_budget(&key);
        Ok(out)
    }
}

/// The process-wide cache behind [`shared_trace`] and
/// [`shared_file_trace`], budgeted by `DOMINO_TRACE_CACHE_BYTES` (read
/// once, at first use).
fn shared() -> &'static TraceCache {
    static SHARED: OnceLock<TraceCache> = OnceLock::new();
    SHARED.get_or_init(|| {
        TraceCache::new(
            std::env::var("DOMINO_TRACE_CACHE_BYTES")
                .ok()
                .and_then(|v| v.trim().parse().ok()),
        )
    })
}

/// [`TraceCache::trace`] on the process-wide cache: the trace is
/// generated at most once per process while it stays cached.
pub fn shared_trace(spec: &WorkloadSpec, events: usize, seed: u64) -> Arc<[AccessEvent]> {
    shared().trace(spec, events, seed)
}

/// [`TraceCache::file_trace`] on the process-wide cache.
pub fn shared_file_trace(
    path: &Path,
    max_events: usize,
) -> Result<Arc<[AccessEvent]>, TraceFileError> {
    shared().file_trace(path, max_events)
}

/// A tenant's view into a shared base trace: a contiguous window of a
/// cached `Arc<[AccessEvent]>`. Thousands of tenant streams share one
/// base allocation per `(spec, seed)` instead of generating thousands of
/// private traces — the memory model behind the metadata service's load
/// generator.
#[derive(Debug, Clone)]
pub struct TenantSlice {
    /// The shared base trace the window points into.
    pub trace: Arc<[AccessEvent]>,
    /// Window start within `trace`.
    pub start: usize,
    /// Window length in events.
    pub len: usize,
}

impl TenantSlice {
    /// The window's events.
    pub fn events(&self) -> &[AccessEvent] {
        &self.trace[self.start..self.start + self.len]
    }
}

/// Derives tenant `tenant`'s miss-stream window: `events` consecutive
/// events of the shared `(spec, seed)` base trace of `base_events`
/// events, at an offset drawn deterministically from `(seed, tenant)`.
/// Same inputs → byte-identical window, across processes and thread
/// schedules, so a service run and its single-tenant reference replay
/// exactly the same stream.
///
/// `base_events` is clamped up to `events` so the window always fits;
/// distinct tenants overlap freely (their sessions are independent).
pub fn shared_tenant_slice(
    spec: &WorkloadSpec,
    base_events: usize,
    seed: u64,
    tenant: u64,
    events: usize,
) -> TenantSlice {
    let base_events = base_events.max(events);
    let trace = shared_trace(spec, base_events, seed);
    tenant_slice_of(trace, seed, tenant, events)
}

/// Derives tenant `tenant`'s window of an arbitrary shared trace — the
/// same seeded offset derivation as [`shared_tenant_slice`], for base
/// traces that are not generated from a spec (e.g. a file-backed trace
/// from [`shared_file_trace`]). A file cannot be extended, so `events`
/// is clamped down to the trace length.
pub fn tenant_slice_of(
    trace: Arc<[AccessEvent]>,
    seed: u64,
    tenant: u64,
    events: usize,
) -> TenantSlice {
    let events = events.min(trace.len());
    let mut rng = SimRng::seed(seed ^ 0x7e6a_5d4c_3b2a_1908);
    let mut rng = rng.fork(tenant);
    let start = rng.index(trace.len() - events + 1);
    TenantSlice {
        trace,
        start,
        len: events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_trace::workload::catalog;

    #[test]
    fn same_key_shares_the_allocation() {
        let spec = catalog::oltp();
        let a = shared_trace(&spec, 1_000, 42);
        let b = shared_trace(&spec, 1_000, 42);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 1_000);
    }

    #[test]
    fn distinct_seeds_get_distinct_traces() {
        let spec = catalog::oltp();
        let a = shared_trace(&spec, 500, 1);
        let b = shared_trace(&spec, 500, 2);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a[..], b[..]);
    }

    #[test]
    fn mutated_specs_key_separately() {
        let base = catalog::oltp();
        let mut tweaked = catalog::oltp();
        tweaked.temporal.junction_frac += 0.1;
        let a = shared_trace(&base, 300, 7);
        let b = shared_trace(&tweaked, 300, 7);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cached_trace_matches_direct_generation() {
        let spec = catalog::web_search();
        let cached = shared_trace(&spec, 800, 9);
        let direct: Vec<_> = spec.generator(9).take(800).collect();
        assert_eq!(&cached[..], &direct[..]);
    }

    #[test]
    fn tenant_slices_share_the_base_allocation() {
        let spec = catalog::web_search();
        let a = shared_tenant_slice(&spec, 5_000, 77, 0, 400);
        let b = shared_tenant_slice(&spec, 5_000, 77, 1, 400);
        assert!(Arc::ptr_eq(&a.trace, &b.trace));
        assert_eq!(a.events().len(), 400);
        // Same tenant → same window; the derivation is deterministic.
        let a2 = shared_tenant_slice(&spec, 5_000, 77, 0, 400);
        assert_eq!(a.start, a2.start);
        // Windows land inside the base trace.
        assert!(a.start + a.len <= a.trace.len());
        assert!(b.start + b.len <= b.trace.len());
    }

    #[test]
    fn tenant_slice_clamps_short_base() {
        let spec = catalog::oltp();
        let s = shared_tenant_slice(&spec, 10, 3, 9, 250);
        assert_eq!(s.len, 250);
        assert_eq!(s.start, 0);
        assert_eq!(s.trace.len(), 250);
    }
}
