//! Out-of-core trace ingestion: the `DMNOTRC1` on-disk format, codecs,
//! foreign-format adapters, and streaming event sources.
//!
//! Everything in-memory today is bounded by host RAM: the workload models
//! synthesize whole traces and `domino-sim` caches them as `Arc<[AccessEvent]>`
//! slices. Server miss streams — Domino's entire subject — are much larger
//! than that, so this module adds the missing out-of-core path:
//!
//! * [`format`] — the `DMNOTRC1` binary container: fixed-size little-endian
//!   records grouped into digest-protected chunks with a trailing chunk
//!   index. Schema-versioned, written and read with `std` only.
//! * [`compress`] — a Sequitur codec (`crates/sequitur`) that stores each
//!   chunk as a per-chunk event dictionary plus a serialized grammar;
//!   repetitive server traces shrink to a fraction of raw size and
//!   decompress chunk-by-chunk in bounded memory.
//! * [`champsim`] — an adapter for ChampSim's `invoke_prefetcher(ip, addr,
//!   cache_hit, type)` record stream, so traces collected under ChampSim
//!   replay through the reproduction bit-exactly.
//! * [`source`] — the [`EventSource`] abstraction the engines consume:
//!   cached slices, file-backed chunk streams with double-buffered
//!   read-ahead on a background thread, and compressed streams — all with
//!   peak-resident-byte accounting so memory bounds are testable.
//!
//! The simulator plumbing lives in `domino-sim` (`run_coverage_streamed`,
//! `run_timing_streamed`); the CLI entry point is `domino-ingest`.

pub mod champsim;
pub mod compress;
pub mod format;
pub mod source;

pub use champsim::{read_champsim, write_champsim, ChampSimRecord, CHAMPSIM_RECORD_BYTES};
pub use format::{
    write_trace_file, Codec, TraceFileError, TraceReader, TraceWriter, DEFAULT_CHUNK_EVENTS,
    MAX_CHUNK_EVENTS, RECORD_BYTES, TRACE_MAGIC,
};
pub use source::{EventSource, FileSource, SliceSource};
