//! Baseline data prefetchers for the Domino reproduction.
//!
//! Implements every prefetcher the paper evaluates against (§IV-D):
//!
//! * [`nextline`] — next-line prefetching (the baseline's instruction
//!   prefetcher, included as a data-side strawman);
//! * [`stride`] — classic PC-stride prefetching, which prior work showed
//!   is ineffective for server workloads;
//! * [`stms`] — Sampled Temporal Memory Streaming, the state-of-the-art
//!   single-address-lookup temporal prefetcher Domino is built on;
//! * [`digram`] — Wenisch's two-address-lookup variant, the other half of
//!   Domino's motivation;
//! * [`isb`] — the Irregular Stream Buffer (idealized PC/AC), a
//!   PC-localized temporal prefetcher;
//! * [`ghb`] — the Global History Buffer (paper ref \[11\]), the on-chip
//!   ancestor of STMS's metadata organisation;
//! * [`markov`] — the Markov prefetcher (paper ref \[8\]), the original
//!   address-correlation design;
//! * [`sms`] — Spatial Memory Streaming (paper ref \[33\]), the canonical
//!   footprint-based spatial prefetcher;
//! * [`vldp`] — the Variable Length Delta Prefetcher, a spatial
//!   (page-local delta) prefetcher;
//! * [`ngram`] — the history-lookup analyzer behind the paper's
//!   motivation figures (3, 4, 5): match-rate and accuracy as a function
//!   of lookup depth, plus a recursive multi-depth prefetcher;
//! * [`composite`] — spatio-temporal stacking (Figure 16): a temporal
//!   prefetcher trained only on the misses a spatial prefetcher cannot
//!   capture;
//! * [`adaptive`] — feedback-directed degree throttling (an extension
//!   beyond the paper, motivated by its Figure-13 overprediction
//!   analysis).
//!
//! Beyond the paper's own comparison set, two *post-Domino* rivals
//! (ROADMAP item 1) make the evaluation a modern head-to-head:
//!
//! * [`pangloss`] — Pangloss (DPC-3 2019): an on-chip Markov chain with
//!   compressed per-entry transition tables, bounded fan-out, and
//!   frequency-based victim selection;
//! * [`triangel`] — Triangel (ISCA 2024): on-chip temporal prefetching
//!   with a PC-indexed sampler whose reuse/timeliness measurements gate
//!   training and pick the prefetch depth per PC.
//!
//! All of them implement [`domino_mem::Prefetcher`], as does the Domino
//! prefetcher in the `domino` crate, so the evaluation engine treats them
//! uniformly.

pub mod adaptive;
pub mod composite;
pub mod config;
pub mod digram;
pub mod ghb;
pub mod isb;
pub mod markov;
pub mod nextline;
pub mod ngram;
pub mod pangloss;
pub mod sms;
pub mod stms;
pub mod stride;
pub mod triangel;
pub mod vldp;

pub use adaptive::{AdaptiveConfig, AdaptiveDegree};
pub use composite::SpatioTemporal;
pub use config::TemporalConfig;
pub use digram::Digram;
pub use ghb::{Ghb, GhbConfig};
pub use isb::Isb;
pub use markov::{Markov, MarkovConfig};
pub use nextline::NextLine;
pub use ngram::{LookupAnalyzer, LookupDepthStats, MultiDepthPrefetcher};
pub use pangloss::{Pangloss, PanglossConfig};
pub use sms::{Sms, SmsConfig};
pub use stms::Stms;
pub use stride::StridePrefetcher;
pub use triangel::{Triangel, TriangelConfig};
pub use vldp::{Vldp, VldpConfig};
