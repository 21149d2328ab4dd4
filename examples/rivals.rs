//! Prints the modern-rivals head-to-head on its own: STMS, Digram,
//! Domino, Pangloss and Triangel compared on coverage, prefetch
//! accuracy, off-chip metadata traffic per demand byte, and
//! timing-model speedup across the Table-II workload catalog.
//!
//! ```sh
//! cargo run --release --example rivals              # full scale
//! cargo run --release --example rivals -- 20000     # events/workload
//! cargo run --release --example rivals -- --jobs 2  # worker threads
//! ```
//!
//! `tools/check.sh` runs this at a reduced event count as the
//! rivals-smoke stage; the full-scale tables also appear in the main
//! `figures` sweep (and its `BENCH_sweep.json` rivals section).

use domino_repro::sim::figures::{rivals, Scale, Sweep};

fn main() {
    let mut events: Option<usize> = None;
    let mut jobs: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            jobs = args.next().and_then(|s| s.parse().ok());
            assert!(jobs.is_some(), "--jobs needs a positive integer");
        } else {
            events = Some(arg.parse().expect("events must be a positive integer"));
        }
    }
    let scale = Scale {
        events: events.unwrap_or(300_000),
        seed: 42,
    };
    let mut sweep = Sweep::new(scale);
    if let Some(n) = jobs.filter(|&n| n > 0) {
        sweep.jobs = n;
    }
    eprintln!(
        "rivals head-to-head at {} events per workload on {} worker(s)...",
        scale.events, sweep.jobs
    );
    for table in rivals(&mut sweep) {
        println!("{table}");
    }
}
