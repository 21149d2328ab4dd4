//! Evaluation engine and figure harness for the Domino reproduction.
//!
//! This crate ties the substrates together the way the paper's
//! methodology (§IV) does:
//!
//! * [`config`] — the Table I system parameters;
//! * [`engine`] — the trace-based evaluation (L1 filter → prefetch buffer
//!   → triggering events), producing coverage / overprediction /
//!   stream-length reports;
//! * [`timing`] — the interval timing model substituting for the paper's
//!   Flexus cycle-accurate simulations (speedups, bandwidth);
//! * [`multicore`] — the quad-core version: four cores sharing the LLC
//!   and memory channel (§V-D bandwidth analysis);
//! * [`roster`] — the evaluated systems of §IV-D as a buildable enum;
//! * [`figures`] — one runner per paper table/figure, returning printable
//!   [`report::FigureTable`]s from an explicit [`figures::Sweep`] that
//!   runs each distinct cell once;
//! * [`observe`] — telemetry and trace export for figure sweeps (see
//!   the `report` and `explain` binaries for rendering);
//! * [`report`] — plain-text table rendering (and CSV export);
//! * [`svg`] — dependency-free bar-chart rendering of any figure table.
//!
//! ```no_run
//! use domino_sim::figures::{fig11, Scale, Sweep};
//!
//! for table in fig11(&mut Sweep::new(Scale::default())) {
//!     println!("{table}");
//! }
//! ```

#![deny(clippy::cast_possible_truncation)]

pub mod config;
pub mod engine;
pub mod exec;
pub mod figures;
pub mod multicore;
pub mod observe;
pub mod report;
pub mod roster;
pub mod stats;
pub mod svg;
pub mod timing;
pub mod trace_cache;

pub use config::SystemConfig;
pub use engine::{
    baseline_miss_sequence, run_coverage, run_coverage_observed, run_coverage_session,
    run_coverage_streamed, run_coverage_streamed_session, run_coverage_with_batch, CoverageReport,
    CoverageSession,
};
pub use figures::{Scale, Sweep};
pub use multicore::{run_homogeneous, run_multicore, MulticoreReport};
pub use report::FigureTable;
pub use roster::System;
pub use stats::Sample;
pub use timing::{
    run_timing, run_timing_observed, run_timing_streamed, run_timing_with_batch, TimingReport,
};
pub use trace_cache::{shared_file_trace, shared_trace};
