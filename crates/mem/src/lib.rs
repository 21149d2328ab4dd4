//! Memory-hierarchy substrate for the Domino reproduction.
//!
//! The paper's evaluation platform (Table I) is a four-core SPARC server
//! with 64 KB 2-way L1-D caches, a 4 MB 16-way LLC, 45 ns memory latency
//! and 37.5 GB/s of off-chip bandwidth, plus — for the prefetchers — a
//! 32-block prefetch buffer next to each L1-D and multi-megabyte metadata
//! tables resident in main memory. This crate provides each of those
//! components as an independently tested model:
//!
//! * [`cache`] — set-associative caches with pluggable replacement;
//! * [`prefetch_buffer`] — the small LRU prefetch buffer, with
//!   used/unused-eviction accounting (the source of the paper's
//!   *overprediction* metric);
//! * [`mshr`] — miss-status holding registers (bounding MLP);
//! * [`dram`] — latency + shared-bandwidth queue model with per-category
//!   traffic accounting (Figure 15's stacked bars);
//! * [`metadata`] — the off-chip metadata channel used by temporal
//!   prefetchers (round-trip counting, sampled updates);
//! * [`interface`] — the [`interface::Prefetcher`] trait that
//!   every prefetcher in the reproduction implements, including the Domino
//!   core library.

pub mod cache;
pub mod dram;
pub mod history;
pub mod interface;
pub mod metadata;
pub mod mshr;
pub mod prefetch_buffer;
pub mod streams;

pub use cache::{CacheConfig, Replacement, SetAssocCache};
pub use dram::{Dram, DramConfig, TrafficCategory, TrafficStats};
pub use history::{HistoryEntry, HistoryTable, ROW_ENTRIES};
pub use interface::{
    CollectSink, PrefetchRequest, PrefetchSink, Prefetcher, TriggerEvent, TriggerKind,
};
pub use metadata::{MetadataChannel, UpdateSampler};
pub use mshr::MshrFile;
pub use prefetch_buffer::{PrefetchBuffer, PrefetchBufferStats};
pub use streams::{top_up, ReplacePolicy, Stream, StreamTable};
