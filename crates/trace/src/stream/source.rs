//! Streaming event sources: the abstraction the engines consume.
//!
//! An [`EventSource`] hands out the trace as consecutive chunks of
//! [`AccessEvent`]s. The engines (`run_coverage_streamed`,
//! `run_timing_streamed` in `domino-sim`) are chunk-agnostic — each
//! model's loop is byte-identical under any partition of the trace — so the
//! source only controls *where the bytes live*:
//!
//! * [`SliceSource`] — an in-memory slice (the cached path, for parity
//!   checks and as the adapter from `Arc<[AccessEvent]>`);
//! * [`FileSource`] — a `DMNOTRC1` file (raw or Sequitur-compressed)
//!   decoded chunk-by-chunk on a **background read-ahead thread** with
//!   three recycled buffers, so decode and file I/O overlap simulation and
//!   peak resident trace memory stays bounded by a small multiple of the
//!   chunk size regardless of trace length.
//!
//! Every source reports `peak_resident_bytes()` from its own allocation
//! accounting and `budget_bytes()` as the documented bound, which is what
//! the out-of-core acceptance test asserts.

use std::io::{Read, Seek};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::event::AccessEvent;
use crate::stream::format::{TraceFileError, TraceReader, RECORD_BYTES};

/// A stream of trace events delivered in chunks.
///
/// `next_chunk` fills `out` with the next chunk (clearing it first) and
/// returns the number of events delivered; `0` means end of trace. Chunk
/// sizes are a property of the source; consumers must not assume any
/// particular granularity — the engines re-split at batch boundaries.
pub trait EventSource: Send {
    /// Total events the source will deliver.
    fn total_events(&self) -> u64;

    /// The source's chunk granularity in events (the last chunk may be
    /// short).
    fn chunk_events(&self) -> u32;

    /// Delivers the next chunk into `out`, returning its length (0 = EOF).
    ///
    /// # Errors
    ///
    /// Decode or I/O failure in the underlying trace.
    fn next_chunk(&mut self, out: &mut Vec<AccessEvent>) -> Result<usize, TraceFileError>;

    /// Peak trace-resident bytes this source has used so far, from its own
    /// allocation accounting.
    fn peak_resident_bytes(&self) -> u64;

    /// Documented upper bound on [`EventSource::peak_resident_bytes`] for
    /// this source. For file-backed sources this is a small multiple of
    /// the chunk size, independent of trace length; for in-memory slices
    /// it is the whole slice.
    fn budget_bytes(&self) -> u64;
}

/// An in-memory trace served in fixed-size chunks.
#[derive(Debug, Clone)]
pub struct SliceSource {
    trace: Arc<[AccessEvent]>,
    chunk_events: u32,
    pos: usize,
}

impl SliceSource {
    /// Wraps a shared slice.
    pub fn new(trace: Arc<[AccessEvent]>, chunk_events: u32) -> Self {
        SliceSource {
            trace,
            chunk_events: chunk_events.max(1),
            pos: 0,
        }
    }

    /// Wraps an owned vector.
    pub fn from_vec(trace: Vec<AccessEvent>, chunk_events: u32) -> Self {
        SliceSource::new(trace.into(), chunk_events)
    }
}

impl EventSource for SliceSource {
    fn total_events(&self) -> u64 {
        self.trace.len() as u64
    }

    fn chunk_events(&self) -> u32 {
        self.chunk_events
    }

    fn next_chunk(&mut self, out: &mut Vec<AccessEvent>) -> Result<usize, TraceFileError> {
        out.clear();
        let end = (self.pos + self.chunk_events as usize).min(self.trace.len());
        out.extend_from_slice(&self.trace[self.pos..end]);
        let n = end - self.pos;
        self.pos = end;
        Ok(n)
    }

    fn peak_resident_bytes(&self) -> u64 {
        // The whole slice is resident for the source's lifetime; honest
        // accounting is what makes the cached-vs-streamed comparison mean
        // something.
        (self.trace.len() * RECORD_BYTES) as u64 + (self.chunk_events as u64) * RECORD_BYTES as u64
    }

    fn budget_bytes(&self) -> u64 {
        self.peak_resident_bytes()
    }
}

/// How many chunk-sized buffer footprints [`FileSource`] is allowed: three
/// ring buffers (one draining, up to two decoded ahead), the
/// encoded-payload scratch, and the codec's grammar tables, each bounded
/// by roughly one chunk of records (compressed payloads of repetitive
/// traces are smaller; pathological incompressible chunks still fit the
/// slack multiple).
pub const FILE_SOURCE_BUDGET_CHUNKS: u64 = 7;

/// Fixed allowance for channel plumbing and small codec overheads.
pub const FILE_SOURCE_BUDGET_SLACK: u64 = 4096;

enum Delivery {
    Chunk(Vec<AccessEvent>, u64),
    Failed(TraceFileError),
}

/// A `DMNOTRC1` file streamed with double-buffered read-ahead.
///
/// A background thread owns the [`TraceReader`] and decodes upcoming
/// chunks into recycled buffers while the consumer drains the current
/// one, so file I/O and (for compressed traces) grammar expansion overlap
/// simulation. It decodes two chunks at a time and verifies them with two
/// interleaved digest chains; a chunk reaches the consumer only after its
/// own digest matched, in file order, and the first error ends the stream
/// exactly where chunk-by-chunk reads would. Exactly three event buffers
/// circulate; peak resident memory is `budget_bytes()` — a multiple of
/// the chunk size, never of the trace.
#[derive(Debug)]
pub struct FileSource {
    total: u64,
    chunk_events: u32,
    full_rx: Option<Receiver<Delivery>>,
    recycle_tx: Option<Sender<Vec<AccessEvent>>>,
    handle: Option<JoinHandle<()>>,
    peak: Arc<AtomicU64>,
    done: bool,
}

impl std::fmt::Debug for Delivery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Delivery::Chunk(events, peak) => {
                write!(f, "Chunk({} events, peak {peak})", events.len())
            }
            Delivery::Failed(e) => write!(f, "Failed({e})"),
        }
    }
}

impl FileSource {
    /// Opens a trace file and starts the read-ahead thread.
    ///
    /// # Errors
    ///
    /// Any [`TraceFileError`] from opening/validating the file.
    pub fn open(path: &Path) -> Result<Self, TraceFileError> {
        let reader = TraceReader::open(path)?;
        Ok(FileSource::from_reader(reader))
    }

    /// Starts a read-ahead stream over an already-validated reader.
    pub fn from_reader<R>(mut reader: TraceReader<R>) -> Self
    where
        R: Read + Seek + Send + 'static,
    {
        let total = reader.events();
        let chunk_events = reader.chunk_events();
        let chunks = reader.chunk_count();
        let peak = Arc::new(AtomicU64::new(0));
        // Capacity-2 data channel + three circulating buffers = the
        // decoder runs up to two chunks ahead of the consumer, so a
        // scheduling hiccup on either side does not stall the other.
        let (full_tx, full_rx): (SyncSender<Delivery>, _) = sync_channel(2);
        let (recycle_tx, recycle_rx) = channel::<Vec<AccessEvent>>();
        for _ in 0..3 {
            recycle_tx
                .send(Vec::with_capacity(chunk_events as usize))
                .expect("receiver alive");
        }
        let thread_peak = Arc::clone(&peak);
        let buffer_bytes = 3 * u64::from(chunk_events) * RECORD_BYTES as u64;
        let handle = std::thread::spawn(move || {
            // Sends one chunk's read; false once the stream is over,
            // because it failed or because the consumer is gone.
            let deliver = |buf, read: Result<(), TraceFileError>, scratch: u64| match read {
                Ok(()) => {
                    let resident = buffer_bytes + scratch;
                    thread_peak.fetch_max(resident, Ordering::Relaxed);
                    full_tx.send(Delivery::Chunk(buf, resident)).is_ok()
                }
                Err(e) => {
                    let _ = full_tx.send(Delivery::Failed(e));
                    false
                }
            };
            // Chunks are read in pairs, so that two FNV-1a chains verify
            // them side by side; each chunk is sent only once its own
            // digest matched, and the first error ends the stream.
            for idx in (0..chunks).step_by(2) {
                // A closed recycle channel means the consumer is gone.
                let Ok(mut first) = recycle_rx.recv() else {
                    return;
                };
                if idx + 1 == chunks {
                    let read = reader.read_chunk_into(idx, &mut first);
                    deliver(first, read, reader.peak_scratch_bytes());
                    return;
                }
                let Ok(mut second) = recycle_rx.recv() else {
                    return;
                };
                let read = reader.read_chunk_pair_into(idx, &mut first, &mut second);
                let scratch = reader.peak_scratch_bytes();
                let open = match read {
                    Ok(second_read) => {
                        deliver(first, Ok(()), scratch) && deliver(second, second_read, scratch)
                    }
                    Err(e) => deliver(first, Err(e), scratch),
                };
                if !open {
                    return;
                }
            }
        });
        FileSource {
            total,
            chunk_events,
            full_rx: Some(full_rx),
            recycle_tx: Some(recycle_tx),
            handle: Some(handle),
            peak,
            done: chunks == 0,
        }
    }
}

impl EventSource for FileSource {
    fn total_events(&self) -> u64 {
        self.total
    }

    fn chunk_events(&self) -> u32 {
        self.chunk_events
    }

    fn next_chunk(&mut self, out: &mut Vec<AccessEvent>) -> Result<usize, TraceFileError> {
        out.clear();
        if self.done {
            return Ok(0);
        }
        let rx = self.full_rx.as_ref().expect("receiver lives until drop");
        match rx.recv() {
            Ok(Delivery::Chunk(mut buf, _)) => {
                std::mem::swap(out, &mut buf);
                // Hand the drained buffer back for the chunk after next;
                // a finished thread just leaves it unconsumed.
                if let Some(tx) = &self.recycle_tx {
                    let _ = tx.send(buf);
                }
                Ok(out.len())
            }
            Ok(Delivery::Failed(e)) => {
                self.done = true;
                Err(e)
            }
            // Sender dropped: the thread delivered every chunk and exited.
            Err(_) => {
                self.done = true;
                Ok(0)
            }
        }
    }

    fn peak_resident_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    fn budget_bytes(&self) -> u64 {
        FILE_SOURCE_BUDGET_CHUNKS * u64::from(self.chunk_events) * RECORD_BYTES as u64
            + FILE_SOURCE_BUDGET_SLACK
    }
}

impl Drop for FileSource {
    fn drop(&mut self) {
        // Closing both channels unblocks the thread wherever it is
        // (recv on recycle or send on full), then join for a clean exit.
        self.full_rx.take();
        self.recycle_tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Drains a source to completion (tool/test convenience).
///
/// # Errors
///
/// Any decode error from the source.
pub fn collect_source(source: &mut dyn EventSource) -> Result<Vec<AccessEvent>, TraceFileError> {
    let mut all = Vec::new();
    let mut chunk = Vec::new();
    while source.next_chunk(&mut chunk)? > 0 {
        all.extend_from_slice(&chunk);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::format::{write_trace_file, Codec};
    use crate::workload::catalog;
    use std::path::Path;

    fn sample(n: usize) -> Vec<AccessEvent> {
        catalog::media_streaming().generator(9).take(n).collect()
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("domino-source-{tag}-{}.dmno", std::process::id()))
    }

    #[test]
    fn slice_source_delivers_everything_in_order() {
        let events = sample(1000);
        for chunk in [1u32, 37, 1000, 5000] {
            let mut src = SliceSource::from_vec(events.clone(), chunk);
            assert_eq!(src.total_events(), 1000);
            assert_eq!(collect_source(&mut src).unwrap(), events);
        }
    }

    #[test]
    fn file_source_round_trips_raw_and_compressed() {
        let events = sample(3000);
        for (tag, codec) in [("raw", Codec::Raw), ("seq", Codec::Sequitur)] {
            let path = temp_path(tag);
            write_trace_file(&path, &events, 256, codec).unwrap();
            let mut src = FileSource::open(&path).unwrap();
            assert_eq!(src.total_events(), 3000);
            assert_eq!(src.chunk_events(), 256);
            assert_eq!(collect_source(&mut src).unwrap(), events);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn file_source_peak_memory_stays_within_budget_on_10x_trace() {
        // The out-of-core acceptance bound: a trace at least 10x the
        // source's memory budget must stream with peak resident trace
        // bytes inside the budget.
        let chunk_events = 256u32;
        for (tag, codec) in [("big-raw", Codec::Raw), ("big-seq", Codec::Sequitur)] {
            let path = temp_path(tag);
            let mut w =
                super::super::format::TraceWriter::create(&path, chunk_events, codec).unwrap();
            let budget = FILE_SOURCE_BUDGET_CHUNKS * u64::from(chunk_events) * RECORD_BYTES as u64
                + FILE_SOURCE_BUDGET_SLACK;
            let need_events = (budget * 10).div_ceil(RECORD_BYTES as u64) as usize;
            let mut gen = catalog::oltp().generator(5);
            let mut written = 0usize;
            while written < need_events {
                let ev = gen.next().expect("infinite generator");
                w.push(ev).unwrap();
                written += 1;
            }
            w.finish().unwrap();
            let mut src = FileSource::open(&path).unwrap();
            assert!(
                src.total_events() * RECORD_BYTES as u64 >= 10 * src.budget_bytes(),
                "trace must be >= 10x the budget"
            );
            let mut chunk = Vec::new();
            let mut seen = 0u64;
            while src.next_chunk(&mut chunk).unwrap() > 0 {
                seen += chunk.len() as u64;
            }
            assert_eq!(seen, src.total_events());
            let peak = src.peak_resident_bytes();
            assert!(peak > 0, "accounting must have run");
            assert!(
                peak <= src.budget_bytes(),
                "peak {peak} exceeds budget {} ({tag})",
                src.budget_bytes()
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn dropping_a_half_drained_source_joins_cleanly() {
        let events = sample(2000);
        let path = temp_path("drop");
        write_trace_file(&path, &events, 64, Codec::Raw).unwrap();
        let mut src = FileSource::open(&path).unwrap();
        let mut chunk = Vec::new();
        src.next_chunk(&mut chunk).unwrap();
        drop(src); // must not deadlock or panic
        std::fs::remove_file(&path).unwrap();
    }

    /// Chunks delivered up to the first failure, and that failure.
    type Outcome = (Vec<Vec<AccessEvent>>, Option<String>);

    /// What reading `path` one chunk at a time yields.
    fn one_chunk_at_a_time(path: &Path) -> Outcome {
        let mut reader = TraceReader::open(path).unwrap();
        let mut chunks = Vec::new();
        for idx in 0..reader.chunk_count() {
            let mut chunk = Vec::new();
            if let Err(e) = reader.read_chunk_into(idx, &mut chunk) {
                return (chunks, Some(e.to_string()));
            }
            chunks.push(chunk);
        }
        (chunks, None)
    }

    /// What a [`FileSource`] over `path` delivers.
    fn streamed(path: &Path) -> Outcome {
        let mut src = FileSource::open(path).unwrap();
        let (mut chunks, mut chunk) = (Vec::new(), Vec::new());
        loop {
            match src.next_chunk(&mut chunk) {
                Ok(0) => return (chunks, None),
                Ok(_) => chunks.push(chunk.clone()),
                Err(e) => return (chunks, Some(e.to_string())),
            }
        }
    }

    #[test]
    fn odd_and_even_chunk_counts_round_trip() {
        // One chunk, and odd and even counts: the last chunk of an odd
        // count has no partner and is read alone.
        let events = sample(650);
        for codec in [Codec::Raw, Codec::Sequitur] {
            for total in [1usize, 100, 250, 600, 650] {
                let path = temp_path("pair-counts");
                write_trace_file(&path, &events[..total], 100, codec).unwrap();
                let chunks: Vec<_> = events[..total].chunks(100).map(<[_]>::to_vec).collect();
                assert_eq!(streamed(&path), (chunks, None), "{codec:?}, {total} events");
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn paired_decode_delivers_exactly_what_single_reads_yield() {
        // Even and odd chunk counts, both codecs, and one or two damaged
        // chunks: a stored digest flipped in the index (the payload
        // decodes, the check fails) or a payload byte flipped (a bad
        // record or grammar, or a digest mismatch). The source must
        // deliver the same chunks and stop on the same first error as
        // single reads, whichever half of a pair is damaged.
        let events = sample(650);
        for (tag, codec) in [("pairs-raw", Codec::Raw), ("pairs-seq", Codec::Sequitur)] {
            for total in [600usize, 650] {
                let path = temp_path(tag);
                write_trace_file(&path, &events[..total], 100, codec).unwrap();
                let clean = std::fs::read(&path).unwrap();
                let chunks = total.div_ceil(100);
                assert_eq!(
                    streamed(&path),
                    (
                        events[..total].chunks(100).map(<[_]>::to_vec).collect(),
                        None
                    )
                );
                let index_at = u64::from_le_bytes(clean[32..40].try_into().unwrap()) as usize;
                let entry = |k: usize| index_at + 32 * k;
                let payload = |bytes: &[u8], k: usize| {
                    let e = entry(k);
                    let offset = u64::from_le_bytes(bytes[e..e + 8].try_into().unwrap());
                    let len = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap());
                    (offset + len / 2) as usize
                };
                for k in 0..chunks {
                    for damage in 0..4 {
                        let mut bytes = clean.clone();
                        match damage {
                            0 => bytes[entry(k) + 24] ^= 1,
                            1 => bytes[payload(&clean, k)] ^= 0x10,
                            // A bad first digest before a damaged second
                            // payload, and the other way round.
                            2 if k + 1 < chunks => {
                                bytes[entry(k) + 24] ^= 1;
                                bytes[payload(&clean, k + 1)] ^= 0x10;
                            }
                            3 if k + 1 < chunks => {
                                bytes[payload(&clean, k)] ^= 0x10;
                                bytes[entry(k + 1) + 24] ^= 1;
                            }
                            _ => continue,
                        }
                        std::fs::write(&path, &bytes).unwrap();
                        let single = one_chunk_at_a_time(&path);
                        assert!(
                            single.1.is_some(),
                            "{tag}: damage {damage} to chunk {k} went unseen"
                        );
                        assert_eq!(single.0.len(), k, "{tag}: chunk {k} damage {damage}");
                        assert_eq!(streamed(&path), single, "{tag}: chunk {k} damage {damage}");
                    }
                }
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn a_bad_first_digest_is_reported_before_its_pair_is_delivered() {
        // Chunks 2 and 3 are decoded as a pair; chunk 2's stored digest
        // is wrong, chunk 3 is sound. After chunks 0 and 1 the source
        // must report chunk 2 and never deliver chunk 3.
        let events = sample(400);
        let path = temp_path("pair-first");
        write_trace_file(&path, &events, 100, Codec::Sequitur).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let index_at = u64::from_le_bytes(bytes[32..40].try_into().unwrap()) as usize;
        bytes[index_at + 2 * 32 + 24] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let mut src = FileSource::open(&path).unwrap();
        let mut chunk = Vec::new();
        for k in 0..2 {
            assert_eq!(src.next_chunk(&mut chunk).unwrap(), 100);
            assert_eq!(chunk, events[k * 100..(k + 1) * 100]);
        }
        let err = src.next_chunk(&mut chunk).unwrap_err();
        assert!(
            matches!(err, TraceFileError::DigestMismatch { chunk: 2, .. }),
            "{err}"
        );
        assert_eq!(
            src.next_chunk(&mut chunk).unwrap(),
            0,
            "nothing after the error"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decode_errors_surface_through_the_source() {
        let events = sample(500);
        let path = temp_path("corrupt");
        write_trace_file(&path, &events, 128, Codec::Raw).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[40 + 130 * RECORD_BYTES] ^= 1; // corrupt chunk 1's payload
        std::fs::write(&path, &bytes).unwrap();
        let mut src = FileSource::open(&path).unwrap();
        let mut chunk = Vec::new();
        assert_eq!(src.next_chunk(&mut chunk).unwrap(), 128);
        let err = loop {
            match src.next_chunk(&mut chunk) {
                Ok(0) => panic!("corruption must surface"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, TraceFileError::DigestMismatch { chunk: 1, .. }),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
