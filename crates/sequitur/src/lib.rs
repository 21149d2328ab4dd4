//! Sequitur hierarchical grammar inference and temporal-prefetching
//! opportunity analysis.
//!
//! The Domino paper (HPCA 2018), like the prior temporal-streaming work it
//! builds on, uses the **Sequitur** algorithm (Nevill-Manning & Witten,
//! JAIR 1997) to measure how much *temporal opportunity* a miss sequence
//! contains: the fraction of misses that belong to repeating subsequences,
//! and the length distribution of those repeated streams (paper Figures 1,
//! 2, 11, 12, 13).
//!
//! This crate provides:
//!
//! * [`Sequitur`] — a faithful online implementation of the grammar
//!   inference algorithm, maintaining its two invariants (digram uniqueness
//!   and rule utility) incrementally as symbols are appended;
//! * [`analysis`] — grammar statistics and the grammar-derived repetition
//!   coverage;
//! * [`oracle`] — the *oracle stream replay* used to quantify opportunity
//!   the way the paper plots it: upon each miss, the oracle picks the
//!   previous occurrence whose continuation matches the longest stretch of
//!   the future ("always picks the longest stream in the history", §II),
//!   yielding coverage, stream counts, and the stream-length histogram;
//! * [`histogram`] — the bucketed cumulative histogram of Figure 12.
//!
//! Symbols are `u64`s; callers map cache-line addresses (or anything else)
//! onto them.
//!
//! # Example
//!
//! ```
//! use domino_sequitur::Sequitur;
//!
//! let input = [1u64, 2, 3, 1, 2, 3, 1, 2, 3];
//! let g = Sequitur::from_sequence(input.iter().copied());
//! assert_eq!(g.expand(), input);
//! assert!(g.rule_count() >= 1, "repetition must induce rules");
//! ```

pub mod analysis;
pub mod grammar;
pub mod histogram;
mod node;
pub mod oracle;

pub use analysis::GrammarStats;
pub use grammar::{ExportBody, ExportSym, Sequitur};
pub use histogram::Histogram;
pub use oracle::{OracleConfig, OracleReport};
