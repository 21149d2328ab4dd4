//! **Domino** — the temporal data prefetcher of Bakhshalipour,
//! Lotfi-Kamran & Sarbazi-Azad, *Domino Temporal Data Prefetcher*,
//! HPCA 2018.
//!
//! Temporal prefetchers record the sequence of cache misses and replay it
//! when history repeats. The state of the art before Domino, STMS, finds
//! the replay point by looking up the history with a **single** miss
//! address — which cannot tell apart two streams that pass through the
//! same address, so it frequently replays the wrong one. Looking up with
//! **two** consecutive misses (Digram) picks the right stream but
//! sacrifices one prefetch per stream and finds fewer matches.
//!
//! Domino uses **both**: a single-address lookup to prefetch the very
//! next miss immediately, then the pair of the last two triggering events
//! to lock onto the correct stream. Its practical design hinges on the
//! **Enhanced Index Table** ([`eit`]): an index keyed by one address
//! whose entries also store the *next* miss plus a pointer into the
//! history — so the first prefetch of a stream issues after **one**
//! off-chip metadata round trip (STMS needs two), and the follow-up
//! lookup with two addresses needs no second index.
//!
//! # Quickstart
//!
//! ```
//! use domino::{Domino, DominoConfig};
//! use domino_mem::{CollectSink, Prefetcher, TriggerEvent};
//! use domino_trace::addr::{LineAddr, Pc};
//!
//! // The paper's configuration, but with always-recorded metadata
//! // updates instead of 12.5 % sampling, so this tiny example is
//! // deterministic.
//! let config = DominoConfig {
//!     sampling_probability: 1.0,
//!     ..DominoConfig::default()
//! };
//! let mut domino = Domino::new(config);
//! let mut sink = CollectSink::new();
//! for line in [1u64, 2, 3, 4, 5] {
//!     domino.on_trigger(&TriggerEvent::miss(Pc::new(0), LineAddr::new(line)), &mut sink);
//! }
//! // History repeats: a miss on 1 prefetches the recorded next miss (2)
//! // after a single metadata round trip.
//! sink.clear();
//! domino.on_trigger(&TriggerEvent::miss(Pc::new(0), LineAddr::new(1)), &mut sink);
//! assert_eq!(sink.requests[0].line, LineAddr::new(2));
//! assert_eq!(sink.requests[0].delay_trips, 1);
//! ```
//!
//! The crate also ships [`naive::NaiveDomino`], the paper's
//! strawman two-index-table design (§III-A), used by the ablation benches
//! to quantify what the EIT saves.

pub mod config;
pub mod domino;
pub mod eit;
pub mod naive;

/// Whether the named injected bug is active. Only compiled under
/// `--cfg domino_mutate` (the `domino-check --self-test` build); the
/// selected mutation comes from the `DOMINO_MUTATE` environment
/// variable, so one mutant binary can replay every known bug.
#[cfg(domino_mutate)]
pub(crate) fn mutate_active(name: &str) -> bool {
    std::env::var("DOMINO_MUTATE")
        .map(|v| v == name)
        .unwrap_or(false)
}

pub use config::DominoConfig;
pub use domino::Domino;
pub use eit::{Eit, EitConfig, EitEntry, SuperEntryRef};
pub use naive::NaiveDomino;
