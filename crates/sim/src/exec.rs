//! Parallel sweep executor for figure/table runs.
//!
//! Every paper figure is a sweep over independent (workload × prefetcher
//! × parameter) cells, each of which replays a trace through its own
//! private engine state — embarrassingly parallel work that the figure
//! runners used to execute strictly sequentially. This module fans such
//! runs across a dependency-free scoped-thread pool
//! (`std::thread::scope`; the build environment cannot fetch crates, so
//! no rayon) while keeping results **deterministic**: they are returned
//! in submission order regardless of completion order or job count.
//!
//! The caller passes the job count; figure runs take it from their
//! [`crate::figures::Sweep`].
//!
//! ```
//! use domino_sim::exec;
//! let squares = exec::sweep(2, (0..8).map(|i| move || i * i));
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs every closure of `tasks` and returns their results **in
/// submission order**, fanning the work across `jobs` scoped threads
/// (at least one, at most one per task).
///
/// Workers claim tasks through a shared atomic cursor (dynamic
/// scheduling: long cells don't straggle behind a static partition) and
/// each result is written to the slot of its submission index, so the
/// output is byte-for-byte identical at any job count.
pub fn sweep<T, F, I>(jobs: usize, tasks: I) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
    I: IntoIterator<Item = F>,
{
    // Each task sits in a Mutex<Option<..>> cell so the claiming worker
    // can move it out; the atomic cursor hands every index to exactly
    // one worker, so the locks are uncontended.
    let cells: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let n = cells.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = jobs.max(1).min(n);
    if workers == 1 {
        return cells
            .into_iter()
            .map(|c| (c.into_inner().expect("unpoisoned").expect("present"))())
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slot_cells: Vec<Mutex<&mut Option<T>>> = slots.iter_mut().map(Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = cells[i]
                    .lock()
                    .expect("unpoisoned")
                    .take()
                    .expect("claimed exactly once");
                let result = task();
                **slot_cells[i].lock().expect("unpoisoned") = Some(result);
            });
        }
    });
    drop(slot_cells);
    slots
        .into_iter()
        .map(|s| s.expect("every task ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_submission_order() {
        let out = sweep(4, (0..64).map(|i| move || i * 3));
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_parallel() {
        let serial = sweep(1, (0..37).map(|i| move || i * i + 1));
        let parallel = sweep(8, (0..37).map(|i| move || i * i + 1));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_sweep_is_empty() {
        let out: Vec<u64> = sweep(4, Vec::<fn() -> u64>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_tasks() {
        let out = sweep(64, (0..3).map(|i| move || i));
        assert_eq!(out, vec![0, 1, 2]);
    }
}
