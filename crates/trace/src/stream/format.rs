//! The `DMNOTRC1` binary trace container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic            "DMNOTRC1"
//! 8       4     version          1
//! 12      4     record_bytes     24
//! 16      8     events           total event count
//! 24      4     chunk_events     events per chunk (last chunk may be short)
//! 28      4     codec            0 = raw records, 1 = sequitur grammar
//! 32      8     index_offset     byte offset of the chunk index
//! 40      ...   chunk payloads, back to back
//! index_offset  32 * chunk_count chunk index entries
//! ```
//!
//! Each index entry is 32 bytes: `offset: u64`, `byte_len: u64`,
//! `events: u32`, `reserved: u32`, `digest: u64`. The digest is FNV-1a over
//! the *decoded* 24-byte record images of the chunk, so raw and compressed
//! encodings of the same events carry the same digest and readers verify
//! payload integrity codec-independently.
//!
//! A record is 24 bytes: `pc: u64`, `addr: u64`, `gap_insts: u32`,
//! `kind: u8` (0 read, 1 write), `dependent: u8` (0/1), `pad: u16` (must be
//! zero). The encoding is injective over [`AccessEvent`], which is what
//! makes chunk digests and the streaming parity oracle byte-exact.
//!
//! Every malformed input — wrong magic, truncated header, torn records,
//! misaligned index, digest mismatch, a chunk size past
//! [`MAX_CHUNK_EVENTS`] — surfaces as a [`TraceFileError`]; readers never
//! panic on hostile bytes, and no allocation they make is sized by more
//! than one bounded chunk.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::addr::{Addr, Pc};
use crate::event::{AccessEvent, AccessKind};
use crate::stream::compress;

/// File magic: `DMNOTRC1`.
pub const TRACE_MAGIC: [u8; 8] = *b"DMNOTRC1";

/// Current schema version.
pub const TRACE_VERSION: u32 = 1;

/// Size of one encoded event record.
pub const RECORD_BYTES: usize = 24;

/// Header size in bytes.
pub const HEADER_BYTES: u64 = 40;

/// Size of one chunk-index entry.
pub const INDEX_ENTRY_BYTES: u64 = 32;

/// Default chunk granularity: 64 Ki events = 1.5 MiB of raw records.
pub const DEFAULT_CHUNK_EVENTS: u32 = 1 << 16;

/// Largest chunk granularity a file may declare: 1 Mi events, 16× the
/// default. [`TraceReader`] and [`TraceWriter`] both reject larger
/// `chunk_events` with [`TraceFileError::BadHeader`], so no buffer sized
/// from a header exceeds 24 MiB of records, and every count and id the
/// Sequitur codec stores fits its `u32` fields.
pub const MAX_CHUNK_EVENTS: u32 = 1 << 20;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Payload encoding of the chunks in a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Chunks are consecutive 24-byte records.
    Raw,
    /// Chunks are a per-chunk event dictionary plus a serialized Sequitur
    /// grammar over dictionary ids (see [`crate::stream::compress`]).
    Sequitur,
}

impl Codec {
    fn from_raw(raw: u32) -> Option<Codec> {
        match raw {
            0 => Some(Codec::Raw),
            1 => Some(Codec::Sequitur),
            _ => None,
        }
    }

    fn to_raw(self) -> u32 {
        match self {
            Codec::Raw => 0,
            Codec::Sequitur => 1,
        }
    }

    /// Human-readable codec name (`raw` / `sequitur`).
    pub fn label(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::Sequitur => "sequitur",
        }
    }
}

/// Error reading or writing a `DMNOTRC1` file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// File too short to hold the fixed header.
    TruncatedHeader {
        /// Actual file length.
        len: u64,
    },
    /// Leading bytes are not [`TRACE_MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 8],
    },
    /// Schema version this reader does not understand.
    UnsupportedVersion {
        /// Version field from the header.
        version: u32,
    },
    /// Header field with an invalid value.
    BadHeader {
        /// What is wrong.
        detail: String,
    },
    /// Chunk index missing, misaligned, or internally inconsistent.
    BadIndex {
        /// What is wrong.
        detail: String,
    },
    /// Raw chunk whose byte length is not `events * 24` (a torn record).
    TornRecord {
        /// Chunk number.
        chunk: usize,
        /// Byte length claimed by the index.
        byte_len: u64,
    },
    /// Record with an invalid field encoding.
    BadRecord {
        /// Chunk number.
        chunk: usize,
        /// What is wrong.
        detail: String,
    },
    /// Chunk payload whose decoded digest does not match the index.
    DigestMismatch {
        /// Chunk number.
        chunk: usize,
        /// Digest recorded in the index.
        expected: u64,
        /// Digest of the decoded payload.
        actual: u64,
    },
    /// Compressed chunk whose grammar is malformed.
    BadGrammar {
        /// Chunk number.
        chunk: usize,
        /// What is wrong.
        detail: String,
    },
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file I/O error: {e}"),
            TraceFileError::TruncatedHeader { len } => {
                write!(f, "truncated header: file is {len} bytes, need {HEADER_BYTES}")
            }
            TraceFileError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?}, expected {TRACE_MAGIC:02x?} (\"DMNOTRC1\")")
            }
            TraceFileError::UnsupportedVersion { version } => {
                write!(f, "unsupported trace version {version} (this reader understands {TRACE_VERSION})")
            }
            TraceFileError::BadHeader { detail } => write!(f, "bad header: {detail}"),
            TraceFileError::BadIndex { detail } => write!(f, "bad chunk index: {detail}"),
            TraceFileError::TornRecord { chunk, byte_len } => write!(
                f,
                "torn record in chunk {chunk}: {byte_len} bytes is not a whole number of {RECORD_BYTES}-byte records for the indexed event count"
            ),
            TraceFileError::BadRecord { chunk, detail } => {
                write!(f, "bad record in chunk {chunk}: {detail}")
            }
            TraceFileError::DigestMismatch {
                chunk,
                expected,
                actual,
            } => write!(
                f,
                "digest mismatch in chunk {chunk}: index says {expected:#018x}, payload decodes to {actual:#018x}"
            ),
            TraceFileError::BadGrammar { chunk, detail } => {
                write!(f, "bad grammar in chunk {chunk}: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// An event's record image as three little-endian words: `pc`, `addr`,
/// and `gap_insts | kind << 32 | dependent << 40` (the pad bytes are
/// zero). Built in registers, so the encoder hashes and stores whole words
/// instead of re-reading bytes it wrote one at a time.
pub(crate) fn record_words(ev: &AccessEvent) -> [u64; 3] {
    let kind: u64 = match ev.kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    };
    let tail = u64::from(ev.gap_insts) | kind << 32 | u64::from(ev.dependent) << 40;
    [ev.pc.raw(), ev.addr.raw(), tail]
}

/// Encodes one event into its 24-byte record image.
pub fn encode_record(ev: &AccessEvent, out: &mut [u8; RECORD_BYTES]) {
    for (field, word) in out.chunks_exact_mut(8).zip(record_words(ev)) {
        field.copy_from_slice(&word.to_le_bytes());
    }
}

/// Replaces the contents of `out` with the raw-codec payload of `events`:
/// their record images.
fn encode_raw(events: &[AccessEvent], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(events.len() * RECORD_BYTES);
    for ev in events {
        for word in record_words(ev) {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }
}

/// The event a 24-byte record image spells, and the image's invalid bits:
/// any bit of the kind and dependent bytes above bit 0, and the pad
/// bytes. The image is a valid record exactly when they are zero.
pub(crate) fn record_event(b: &[u8; RECORD_BYTES]) -> (AccessEvent, u64) {
    let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
    let flags = word(16) >> 32;
    let ev = AccessEvent {
        pc: Pc::new(word(0)),
        addr: Addr::new(word(8)),
        kind: if flags & 1 == 0 {
            AccessKind::Read
        } else {
            AccessKind::Write
        },
        gap_insts: u32::from_le_bytes(b[16..20].try_into().expect("4 bytes")),
        dependent: flags >> 8 & 1 == 1,
    };
    (ev, flags & !0x0101)
}

/// Decodes one 24-byte record image; strict about every spare bit so that
/// corruption cannot round-trip silently.
pub fn decode_record(b: &[u8; RECORD_BYTES]) -> Result<AccessEvent, String> {
    let (ev, invalid) = record_event(b);
    if invalid == 0 {
        return Ok(ev);
    }
    if b[20] > 1 {
        return Err(format!("invalid kind byte {:#04x}", b[20]));
    }
    if b[21] > 1 {
        return Err(format!("invalid dependent byte {:#04x}", b[21]));
    }
    Err(format!("nonzero pad bytes {:#04x} {:#04x}", b[22], b[23]))
}

/// Appends the events of `bytes`, a run of whole record images, to `out`.
/// All of them are checked as [`decode_record`] checks one, but in a
/// single pass that builds no `Result` per record; only when a record is
/// invalid does a second pass find the first such record, whose index
/// and [`decode_record`] error are returned (and `out` is left as it was).
pub(crate) fn decode_records(
    bytes: &[u8],
    out: &mut Vec<AccessEvent>,
) -> Result<(), (usize, String)> {
    let (records, _) = bytes.as_chunks::<RECORD_BYTES>();
    let start = out.len();
    let mut invalid = 0;
    out.extend(records.iter().map(|rec| {
        let (ev, bits) = record_event(rec);
        invalid |= bits;
        ev
    }));
    if invalid == 0 {
        return Ok(());
    }
    out.truncate(start);
    Err(first_invalid(records))
}

/// Checks `records` as [`decode_records`] does, without decoding them
/// anywhere.
pub(crate) fn check_records(records: &[[u8; RECORD_BYTES]]) -> Result<(), (usize, String)> {
    let invalid = records
        .iter()
        .fold(0, |bits, rec| bits | record_event(rec).1);
    if invalid == 0 {
        return Ok(());
    }
    Err(first_invalid(records))
}

/// The index and [`decode_record`] error of the first invalid record in
/// `records`, which holds one.
fn first_invalid(records: &[[u8; RECORD_BYTES]]) -> (usize, String) {
    records
        .iter()
        .enumerate()
        .find_map(|(i, rec)| decode_record(rec).err().map(|detail| (i, detail)))
        .expect("invalid bits come from some record")
}

#[cfg(test)]
fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// One FNV-1a step per byte of `word`, low byte first: the word's
/// little-endian image.
#[inline(always)]
fn fnv_word(mut h: u64, word: u64) -> u64 {
    for shift in (0..64).step_by(8) {
        h = (h ^ (word >> shift & 0xff)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over one event's record image, continuing from `h`.
#[inline(always)]
fn fnv_record(h: u64, ev: &AccessEvent) -> u64 {
    record_words(ev).into_iter().fold(h, fnv_word)
}

/// FNV-1a digest over the record images of `events` — the chunk digest
/// stored in the index, identical for raw and compressed encodings.
pub fn digest_events(events: &[AccessEvent]) -> u64 {
    events.iter().fold(FNV_BASIS, fnv_record)
}

/// [`digest_events`] of two chunks at once. FNV-1a is one chain of
/// dependent multiplies, 24 per event; stepping two independent chains
/// event by event side by side keeps two multiplies in flight, so the
/// pair costs little more than one chunk does alone.
fn digest_pair(a: &[AccessEvent], b: &[AccessEvent]) -> (u64, u64) {
    let n = a.len().min(b.len());
    let (mut ha, mut hb) = (FNV_BASIS, FNV_BASIS);
    for (x, y) in a[..n].iter().zip(&b[..n]) {
        ha = fnv_record(ha, x);
        hb = fnv_record(hb, y);
    }
    (
        a[n..].iter().fold(ha, fnv_record),
        b[n..].iter().fold(hb, fnv_record),
    )
}

#[derive(Debug, Clone, Copy)]
struct ChunkMeta {
    offset: u64,
    byte_len: u64,
    events: u32,
    digest: u64,
}

/// Summary returned by [`TraceWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events written.
    pub events: u64,
    /// Number of chunks.
    pub chunks: usize,
    /// Total file size in bytes (header + payload + index).
    pub file_bytes: u64,
    /// Payload bytes (sum of encoded chunk lengths).
    pub payload_bytes: u64,
}

/// Streaming `DMNOTRC1` writer.
///
/// Events are buffered per chunk. A full chunk goes to a write-behind
/// encoder thread, which digests and encodes it (either codec) while the
/// next chunk fills; the calling thread keeps the sink and writes the
/// encoded chunks in order, so the index, the header and every I/O error
/// stay on the caller's side. At most two chunks are held: one filling,
/// one encoding. [`TraceWriter::finish`] must be called to seal the file —
/// it writes the chunk index and rewrites the header (which is
/// zero-stamped until then, so an unfinished file is rejected by
/// [`TraceReader`] rather than silently truncated). After an error the
/// encoder thread is joined and every later call fails.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    chunk_events: u32,
    codec: Codec,
    /// The chunk being filled.
    pending: Vec<AccessEvent>,
    /// The encoder thread; `None` once joined, by `finish` or on an error.
    worker: Option<EncodeWorker>,
    index: Vec<ChunkMeta>,
    events: u64,
    cursor: u64,
}

/// A chunk's trip through the encoder thread and back: its events go out,
/// and return with their digest and encoded payload. Both buffers are
/// recycled for a later chunk.
#[derive(Default)]
struct Chunk {
    events: Vec<AccessEvent>,
    payload: Vec<u8>,
    digest: u64,
}

/// The write-behind encoder thread of a [`TraceWriter`]. Like
/// [`crate::stream::FileSource`]'s read-ahead decoder, it owns the codec
/// state for the file's lifetime: one [`compress::Encoder`] serves every
/// chunk.
struct EncodeWorker {
    jobs: Sender<Chunk>,
    done: Receiver<Chunk>,
    handle: JoinHandle<()>,
    /// Whether a chunk is being encoded.
    in_flight: bool,
}

impl std::fmt::Debug for EncodeWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodeWorker")
            .field("in_flight", &self.in_flight)
            .finish_non_exhaustive()
    }
}

impl EncodeWorker {
    fn spawn(codec: Codec) -> std::io::Result<Self> {
        let (jobs, job_rx) = channel::<Chunk>();
        let (done_tx, done) = channel();
        let handle = std::thread::Builder::new()
            .name("dmno-encode".into())
            .spawn(move || {
                let mut encoder = compress::Encoder::default();
                // Ends when the writer hangs up.
                for mut chunk in job_rx {
                    chunk.digest = digest_events(&chunk.events);
                    match codec {
                        Codec::Raw => encode_raw(&chunk.events, &mut chunk.payload),
                        Codec::Sequitur => encoder.encode(&chunk.events, &mut chunk.payload),
                    }
                    if done_tx.send(chunk).is_err() {
                        return;
                    }
                }
            })?;
        Ok(EncodeWorker {
            jobs,
            done,
            handle,
            in_flight: false,
        })
    }

    /// Hangs up on the thread and joins it; a panic there becomes an
    /// error.
    fn join(self) -> Result<(), TraceFileError> {
        // Without both channels the thread stops wherever it is: waiting
        // for a chunk, or sending one back.
        drop(self.jobs);
        drop(self.done);
        self.handle.join().map_err(|panic| {
            let what = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            stopped(&format!("the chunk encoder thread panicked: {what}"))
        })
    }
}

/// The error of a writer whose encoder thread is gone.
fn stopped(why: &str) -> TraceFileError {
    TraceFileError::Io(std::io::Error::other(why.to_string()))
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) `path` and writes the placeholder header.
    ///
    /// # Errors
    ///
    /// I/O failures, and a zero `chunk_events` or one above
    /// [`MAX_CHUNK_EVENTS`].
    pub fn create(path: &Path, chunk_events: u32, codec: Codec) -> Result<Self, TraceFileError> {
        let file = File::create(path)?;
        TraceWriter::new(BufWriter::new(file), chunk_events, codec)
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Wraps any seekable sink, writes the placeholder header and starts
    /// the encoder thread.
    ///
    /// # Errors
    ///
    /// I/O failures, and a zero `chunk_events` or one above
    /// [`MAX_CHUNK_EVENTS`].
    pub fn new(mut sink: W, chunk_events: u32, codec: Codec) -> Result<Self, TraceFileError> {
        if chunk_events == 0 {
            return Err(TraceFileError::BadHeader {
                detail: "chunk_events must be nonzero".into(),
            });
        }
        if chunk_events > MAX_CHUNK_EVENTS {
            return Err(TraceFileError::BadHeader {
                detail: format!(
                    "chunk_events {chunk_events} exceeds MAX_CHUNK_EVENTS ({MAX_CHUNK_EVENTS})"
                ),
            });
        }
        // Placeholder header: correct magic/version but a zero index
        // offset, which TraceReader rejects — a crashed writer leaves an
        // unmistakably unfinished file.
        sink.write_all(&header_bytes(0, chunk_events, codec, 0))?;
        let worker = EncodeWorker::spawn(codec)?;
        Ok(TraceWriter {
            sink,
            chunk_events,
            codec,
            pending: Vec::with_capacity(chunk_events as usize),
            worker: Some(worker),
            index: Vec::new(),
            events: 0,
            cursor: HEADER_BYTES,
        })
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// I/O failures when a full chunk flushes, and any earlier failure.
    pub fn push(&mut self, ev: AccessEvent) -> Result<(), TraceFileError> {
        self.write_events(std::slice::from_ref(&ev))
    }

    /// Appends a slice of events.
    ///
    /// # Errors
    ///
    /// I/O failures when full chunks flush, and any earlier failure.
    pub fn write_events(&mut self, mut events: &[AccessEvent]) -> Result<(), TraceFileError> {
        self.worker()?;
        let chunk = self.chunk_events as usize;
        while !events.is_empty() {
            let (now, rest) = events.split_at((chunk - self.pending.len()).min(events.len()));
            self.pending.extend_from_slice(now);
            self.events += now.len() as u64;
            if self.pending.len() == chunk {
                let flushed = self.flush_chunk();
                self.stop_on_error(flushed)?;
            }
            events = rest;
        }
        Ok(())
    }

    /// Hands the pending chunk to the encoder thread, after writing out
    /// the chunk it was encoding. The events buffer of that chunk (or, for
    /// the first chunk, a new one) becomes the next `pending`.
    fn flush_chunk(&mut self) -> Result<(), TraceFileError> {
        let mut chunk = self.write_encoded()?.unwrap_or_default();
        chunk.events.clear();
        chunk.events.reserve_exact(self.chunk_events as usize);
        std::mem::swap(&mut chunk.events, &mut self.pending);
        let worker = self.worker()?;
        worker
            .jobs
            .send(chunk)
            .map_err(|_| stopped("the chunk encoder thread stopped"))?;
        worker.in_flight = true;
        Ok(())
    }

    /// Waits for the chunk being encoded, if any, and writes it to the
    /// sink; returns its buffers for reuse.
    fn write_encoded(&mut self) -> Result<Option<Chunk>, TraceFileError> {
        let worker = self.worker()?;
        if !worker.in_flight {
            return Ok(None);
        }
        let chunk = worker
            .done
            .recv()
            .map_err(|_| stopped("the chunk encoder thread stopped"))?;
        worker.in_flight = false;
        self.sink.write_all(&chunk.payload)?;
        let byte_len = chunk.payload.len() as u64;
        self.index.push(ChunkMeta {
            offset: self.cursor,
            byte_len,
            events: u32::try_from(chunk.events.len())
                .expect("chunks hold at most MAX_CHUNK_EVENTS events"),
            digest: chunk.digest,
        });
        self.cursor += byte_len;
        Ok(Some(chunk))
    }

    /// The encoder thread, unless an earlier failure stopped it.
    fn worker(&mut self) -> Result<&mut EncodeWorker, TraceFileError> {
        self.worker
            .as_mut()
            .ok_or_else(|| stopped("the trace writer failed earlier"))
    }

    /// Passes `result` through; on an error, first joins the encoder
    /// thread, whose panic, if it had one, is the error returned.
    fn stop_on_error<T>(&mut self, result: Result<T, TraceFileError>) -> Result<T, TraceFileError> {
        if result.is_err() {
            if let Some(worker) = self.worker.take() {
                worker.join()?;
            }
        }
        result
    }

    /// Flushes the final partial chunk, writes the chunk index, seals the
    /// header, and returns a summary. The encoder thread is joined first.
    ///
    /// # Errors
    ///
    /// I/O failures, a panic of the encoder thread, and any earlier
    /// failure.
    pub fn finish(mut self) -> Result<TraceSummary, TraceFileError> {
        let drained = self.drain();
        self.stop_on_error(drained)?;
        let index_offset = self.cursor;
        let payload_bytes = index_offset - HEADER_BYTES;
        for meta in &self.index {
            let mut entry = [0u8; INDEX_ENTRY_BYTES as usize];
            entry[0..8].copy_from_slice(&meta.offset.to_le_bytes());
            entry[8..16].copy_from_slice(&meta.byte_len.to_le_bytes());
            entry[16..20].copy_from_slice(&meta.events.to_le_bytes());
            // entry[20..24] reserved, zero.
            entry[24..32].copy_from_slice(&meta.digest.to_le_bytes());
            self.sink.write_all(&entry)?;
        }
        self.sink.seek(SeekFrom::Start(0))?;
        self.sink.write_all(&header_bytes(
            self.events,
            self.chunk_events,
            self.codec,
            index_offset,
        ))?;
        self.sink.flush()?;
        Ok(TraceSummary {
            events: self.events,
            chunks: self.index.len(),
            file_bytes: index_offset + INDEX_ENTRY_BYTES * self.index.len() as u64,
            payload_bytes,
        })
    }

    /// Encodes and writes out every chunk still held, then joins the
    /// encoder thread.
    fn drain(&mut self) -> Result<(), TraceFileError> {
        self.worker()?;
        if !self.pending.is_empty() {
            self.flush_chunk()?;
        }
        self.write_encoded()?;
        self.worker.take().map_or(Ok(()), EncodeWorker::join)
    }
}

impl<W: Write + Seek> Drop for TraceWriter<W> {
    fn drop(&mut self) {
        // An unfinished writer still joins its encoder thread; the file
        // stays unsealed, and a panic there stays unreported here.
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn header_bytes(events: u64, chunk_events: u32, codec: Codec, index_offset: u64) -> [u8; 40] {
    let mut h = [0u8; HEADER_BYTES as usize];
    h[0..8].copy_from_slice(&TRACE_MAGIC);
    h[8..12].copy_from_slice(&TRACE_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&(RECORD_BYTES as u32).to_le_bytes());
    h[16..24].copy_from_slice(&events.to_le_bytes());
    h[24..28].copy_from_slice(&chunk_events.to_le_bytes());
    h[28..32].copy_from_slice(&codec.to_raw().to_le_bytes());
    h[32..40].copy_from_slice(&index_offset.to_le_bytes());
    h
}

/// Validating `DMNOTRC1` reader with per-chunk random access.
///
/// Construction parses and cross-checks the header and the whole chunk
/// index (alignment, contiguity, event totals, raw record sizing) before
/// any payload is touched; [`TraceReader::read_chunk_into`] then verifies
/// each chunk's digest as it decodes. Memory use is one chunk's payload
/// (`scratch`) and the Sequitur decoder's tables, both reused from chunk
/// to chunk, plus the decoded events the caller asked for.
#[derive(Debug)]
pub struct TraceReader<R: Read + Seek> {
    src: R,
    events: u64,
    chunk_events: u32,
    codec: Codec,
    index: Vec<ChunkMeta>,
    scratch: Vec<u8>,
    decoder: compress::Decoder,
    peak_scratch: u64,
}

impl TraceReader<BufReader<File>> {
    /// Opens and validates a trace file.
    ///
    /// # Errors
    ///
    /// Any [`TraceFileError`]: I/O, malformed header, malformed index.
    pub fn open(path: &Path) -> Result<Self, TraceFileError> {
        let file = File::open(path)?;
        TraceReader::new(BufReader::new(file))
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Wraps any seekable source, validating header and chunk index.
    ///
    /// # Errors
    ///
    /// Any [`TraceFileError`]: I/O, malformed header, malformed index.
    pub fn new(mut src: R) -> Result<Self, TraceFileError> {
        let file_len = src.seek(SeekFrom::End(0))?;
        src.seek(SeekFrom::Start(0))?;
        if file_len >= 8 {
            let mut magic = [0u8; 8];
            src.read_exact(&mut magic)?;
            if magic != TRACE_MAGIC {
                return Err(TraceFileError::BadMagic { found: magic });
            }
        }
        if file_len < HEADER_BYTES {
            return Err(TraceFileError::TruncatedHeader { len: file_len });
        }
        let mut rest = [0u8; (HEADER_BYTES - 8) as usize];
        src.read_exact(&mut rest)?;
        let version = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        if version != TRACE_VERSION {
            return Err(TraceFileError::UnsupportedVersion { version });
        }
        let record_bytes = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if record_bytes as usize != RECORD_BYTES {
            return Err(TraceFileError::BadHeader {
                detail: format!("record_bytes is {record_bytes}, expected {RECORD_BYTES}"),
            });
        }
        let events = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
        let chunk_events = u32::from_le_bytes(rest[16..20].try_into().expect("4 bytes"));
        if chunk_events == 0 {
            return Err(TraceFileError::BadHeader {
                detail: "chunk_events is zero".into(),
            });
        }
        // Checked before anything is sized from it: the chunk buffers of
        // readers and of `FileSource` are.
        if chunk_events > MAX_CHUNK_EVENTS {
            return Err(TraceFileError::BadHeader {
                detail: format!(
                    "chunk_events {chunk_events} exceeds MAX_CHUNK_EVENTS ({MAX_CHUNK_EVENTS})"
                ),
            });
        }
        let codec_raw = u32::from_le_bytes(rest[20..24].try_into().expect("4 bytes"));
        let codec = Codec::from_raw(codec_raw).ok_or(TraceFileError::BadHeader {
            detail: format!("unknown codec {codec_raw}"),
        })?;
        let index_offset = u64::from_le_bytes(rest[24..32].try_into().expect("8 bytes"));
        let chunks = events.div_ceil(u64::from(chunk_events));
        if index_offset < HEADER_BYTES || index_offset > file_len {
            return Err(TraceFileError::BadIndex {
                detail: format!(
                    "index offset {index_offset} outside file (len {file_len}); unfinished writer?"
                ),
            });
        }
        let index_bytes = file_len - index_offset;
        if index_bytes != chunks * INDEX_ENTRY_BYTES {
            return Err(TraceFileError::BadIndex {
                detail: format!(
                    "misaligned index: {index_bytes} bytes after the index offset, but {chunks} chunks need {}",
                    chunks * INDEX_ENTRY_BYTES
                ),
            });
        }
        src.seek(SeekFrom::Start(index_offset))?;
        let mut index = Vec::with_capacity(chunks as usize);
        let mut expected_offset = HEADER_BYTES;
        let mut total_events = 0u64;
        for chunk in 0..chunks as usize {
            let mut entry = [0u8; INDEX_ENTRY_BYTES as usize];
            src.read_exact(&mut entry)?;
            let offset = u64::from_le_bytes(entry[0..8].try_into().expect("8 bytes"));
            let byte_len = u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes"));
            let chunk_ev = u32::from_le_bytes(entry[16..20].try_into().expect("4 bytes"));
            let digest = u64::from_le_bytes(entry[24..32].try_into().expect("8 bytes"));
            if offset != expected_offset {
                return Err(TraceFileError::BadIndex {
                    detail: format!(
                        "chunk {chunk} starts at {offset}, expected {expected_offset} (chunks must be contiguous)"
                    ),
                });
            }
            if offset + byte_len > index_offset {
                return Err(TraceFileError::BadIndex {
                    detail: format!("chunk {chunk} payload overruns the index"),
                });
            }
            let is_last = chunk as u64 == chunks - 1;
            let expected_events = if is_last {
                events - u64::from(chunk_events) * (chunks - 1)
            } else {
                u64::from(chunk_events)
            };
            if u64::from(chunk_ev) != expected_events {
                return Err(TraceFileError::BadIndex {
                    detail: format!(
                        "chunk {chunk} claims {chunk_ev} events, expected {expected_events}"
                    ),
                });
            }
            if codec == Codec::Raw && byte_len != u64::from(chunk_ev) * RECORD_BYTES as u64 {
                return Err(TraceFileError::TornRecord { chunk, byte_len });
            }
            total_events += u64::from(chunk_ev);
            expected_offset = offset + byte_len;
            index.push(ChunkMeta {
                offset,
                byte_len,
                events: chunk_ev,
                digest,
            });
        }
        if expected_offset != index_offset {
            return Err(TraceFileError::BadIndex {
                detail: format!(
                    "payload ends at {expected_offset} but index starts at {index_offset}"
                ),
            });
        }
        debug_assert_eq!(total_events, events);
        Ok(TraceReader {
            src,
            events,
            chunk_events,
            codec,
            index,
            scratch: Vec::new(),
            decoder: compress::Decoder::default(),
            peak_scratch: 0,
        })
    }

    /// Total events in the trace.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Chunk granularity the file was written with.
    pub fn chunk_events(&self) -> u32 {
        self.chunk_events
    }

    /// Payload codec.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    /// Event count of chunk `idx`.
    pub fn chunk_len(&self, idx: usize) -> u32 {
        self.index[idx].events
    }

    /// Encoded byte length of chunk `idx`.
    pub fn chunk_bytes(&self, idx: usize) -> u64 {
        self.index[idx].byte_len
    }

    /// Total payload bytes (all encoded chunks).
    pub fn payload_bytes(&self) -> u64 {
        self.index.iter().map(|m| m.byte_len).sum()
    }

    /// Peak bytes of decode-side working memory used so far: the encoded
    /// payload scratch buffer plus the Sequitur decoder's rule tables
    /// and stack. Feeds the [`crate::stream::EventSource`] resident-byte
    /// accounting.
    pub fn peak_scratch_bytes(&self) -> u64 {
        self.peak_scratch
    }

    /// Decodes chunk `idx` into `out` (cleared first), verifying its digest.
    ///
    /// # Errors
    ///
    /// I/O failures, malformed records or grammars, digest mismatches.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= chunk_count()`.
    pub fn read_chunk_into(
        &mut self,
        idx: usize,
        out: &mut Vec<AccessEvent>,
    ) -> Result<(), TraceFileError> {
        self.expand_chunk_into(idx, out)?;
        self.verify_chunk(idx, digest_events(out))
    }

    /// Reads chunks `idx` and `idx + 1` into `first` and `second`, as two
    /// [`TraceReader::read_chunk_into`] calls would, but verifies both
    /// digests with two interleaved FNV-1a chains.
    ///
    /// Returns `Err` with chunk `idx`'s own error if it fails, whatever
    /// chunk `idx + 1` holds; otherwise `first` is verified and the inner
    /// result is chunk `idx + 1`'s. Errors are therefore exactly those of
    /// the two single reads in order.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::read_chunk_into`], for chunk `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx + 1 >= chunk_count()`.
    pub(crate) fn read_chunk_pair_into(
        &mut self,
        idx: usize,
        first: &mut Vec<AccessEvent>,
        second: &mut Vec<AccessEvent>,
    ) -> Result<Result<(), TraceFileError>, TraceFileError> {
        assert!(idx + 1 < self.chunk_count(), "chunk {idx} has no successor");
        self.expand_chunk_into(idx, first)?;
        let expanded = self.expand_chunk_into(idx + 1, second);
        let (digest_first, digest_second) = match expanded {
            Ok(()) => digest_pair(first, second),
            Err(_) => (digest_events(first), 0),
        };
        self.verify_chunk(idx, digest_first)?;
        Ok(expanded.and_then(|()| self.verify_chunk(idx + 1, digest_second)))
    }

    /// Reads and decodes chunk `idx` into `out` (cleared first) without
    /// checking its digest.
    fn expand_chunk_into(
        &mut self,
        idx: usize,
        out: &mut Vec<AccessEvent>,
    ) -> Result<(), TraceFileError> {
        let meta = self.index[idx];
        self.src.seek(SeekFrom::Start(meta.offset))?;
        // The read overwrites every byte, so only growth is zero-filled.
        self.scratch.resize(meta.byte_len as usize, 0);
        self.src.read_exact(&mut self.scratch)?;
        out.clear();
        match self.codec {
            Codec::Raw => {
                decode_records(&self.scratch, out).map_err(|(i, detail)| {
                    TraceFileError::BadRecord {
                        chunk: idx,
                        detail: format!("record {i}: {detail}"),
                    }
                })?;
            }
            Codec::Sequitur => {
                self.decoder
                    .decode_into(&self.scratch, meta.events, idx, out)?;
            }
        }
        self.peak_scratch = self
            .peak_scratch
            .max(self.scratch.capacity() as u64 + self.decoder.held_bytes());
        Ok(())
    }

    /// Checks chunk `idx`'s decoded digest against the index. Decoding
    /// is strict, so the events' record images are the payload's (raw)
    /// or the encoder's input (Sequitur) byte for byte.
    fn verify_chunk(&self, idx: usize, actual: u64) -> Result<(), TraceFileError> {
        let expected = self.index[idx].digest;
        if actual != expected {
            return Err(TraceFileError::DigestMismatch {
                chunk: idx,
                expected,
                actual,
            });
        }
        Ok(())
    }

    /// Decodes the whole trace (test/tool convenience — materializes
    /// everything, defeating the point of streaming).
    ///
    /// # Errors
    ///
    /// Any per-chunk decode error.
    pub fn read_all(&mut self) -> Result<Vec<AccessEvent>, TraceFileError> {
        // Grown from decoded chunks, never reserved from the header's total.
        let mut all = Vec::new();
        let mut chunk = Vec::new();
        for idx in 0..self.chunk_count() {
            self.read_chunk_into(idx, &mut chunk)?;
            all.extend_from_slice(&chunk);
        }
        Ok(all)
    }
}

/// Writes `events` to `path` in one call (tool convenience).
///
/// # Errors
///
/// Any [`TraceFileError`] from the writer.
pub fn write_trace_file(
    path: &Path,
    events: &[AccessEvent],
    chunk_events: u32,
    codec: Codec,
) -> Result<TraceSummary, TraceFileError> {
    let mut w = TraceWriter::create(path, chunk_events, codec)?;
    w.write_events(events)?;
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::catalog;
    use std::io::Cursor;

    fn sample(n: usize) -> Vec<AccessEvent> {
        catalog::oltp().generator(11).take(n).collect()
    }

    fn write_to_vec(events: &[AccessEvent], chunk_events: u32, codec: Codec) -> Vec<u8> {
        let mut buf = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut buf, chunk_events, codec).unwrap();
        w.write_events(events).unwrap();
        let summary = w.finish().unwrap();
        assert_eq!(summary.events, events.len() as u64);
        buf.into_inner()
    }

    #[test]
    fn record_encoding_round_trips() {
        for ev in sample(300) {
            let mut rec = [0u8; RECORD_BYTES];
            encode_record(&ev, &mut rec);
            assert_eq!(decode_record(&rec).unwrap(), ev);
        }
    }

    #[test]
    fn raw_round_trip_including_non_divisor_chunks() {
        let events = sample(1000);
        for chunk_events in [1u32, 7, 256, 1000, 4096] {
            let bytes = write_to_vec(&events, chunk_events, Codec::Raw);
            let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
            assert_eq!(r.events(), 1000);
            assert_eq!(r.chunk_count(), 1000usize.div_ceil(chunk_events as usize));
            assert_eq!(r.read_all().unwrap(), events);
        }
    }

    #[test]
    fn sequitur_round_trip() {
        let events = sample(1000);
        for chunk_events in [37u32, 512, 2048] {
            let bytes = write_to_vec(&events, chunk_events, Codec::Sequitur);
            let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
            assert_eq!(r.codec(), Codec::Sequitur);
            assert_eq!(r.read_all().unwrap(), events);
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = write_to_vec(&[], 64, Codec::Raw);
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.events(), 0);
        assert_eq!(r.chunk_count(), 0);
        assert!(r.read_all().unwrap().is_empty());
    }

    #[test]
    fn unfinished_file_is_rejected() {
        // Dropped before any chunk filled, with one chunk encoding, and
        // with one encoding while the next fills: each drop joins the
        // encoder thread (no hang, no panic) and leaves the file unsealed.
        let events = sample(100);
        for codec in [Codec::Raw, Codec::Sequitur] {
            for n in [0usize, 10, 32, 33, 100] {
                let mut buf = Cursor::new(Vec::new());
                let mut w = TraceWriter::new(&mut buf, 32, codec).unwrap();
                w.write_events(&events[..n]).unwrap();
                drop(w); // no finish(): header still zero-stamped
                let err = TraceReader::new(Cursor::new(buf.into_inner())).unwrap_err();
                assert!(matches!(err, TraceFileError::BadIndex { .. }), "{err}");
            }
        }
    }

    /// A sink that takes `budget` bytes, then fails every write.
    struct FailingSink {
        inner: Cursor<Vec<u8>>,
        budget: usize,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("sink full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.inner.write(&buf[..n])
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Seek for FailingSink {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn failing_sink_is_an_io_error_with_the_encoder_joined() {
        let events = sample(1000);
        for codec in [Codec::Raw, Codec::Sequitur] {
            // The header is written twice: as a placeholder, then sealed.
            let total = write_to_vec(&events, 64, codec).len() + HEADER_BYTES as usize;
            for budget in [0, 39, 40, 500, 5_000, total / 2, total - 41, total - 1] {
                let sink = FailingSink {
                    inner: Cursor::new(Vec::new()),
                    budget,
                };
                let mut w = match TraceWriter::new(sink, 64, codec) {
                    Ok(w) => w,
                    Err(err) => {
                        assert!(budget < HEADER_BYTES as usize, "budget {budget}: {err}");
                        assert!(matches!(err, TraceFileError::Io(_)), "{err}");
                        continue;
                    }
                };
                let err = match w.write_events(&events) {
                    Err(err) => {
                        assert!(w.worker.is_none(), "budget {budget}: encoder left running");
                        let later = w.push(events[0]).unwrap_err();
                        assert!(matches!(later, TraceFileError::Io(_)), "{later}");
                        let later = w.finish().unwrap_err();
                        assert!(matches!(later, TraceFileError::Io(_)), "{later}");
                        err
                    }
                    Ok(()) => w.finish().unwrap_err(),
                };
                assert!(
                    matches!(err, TraceFileError::Io(_)),
                    "{} budget {budget}: {err}",
                    codec.label()
                );
            }
            let sink = FailingSink {
                inner: Cursor::new(Vec::new()),
                budget: total,
            };
            let mut w = TraceWriter::new(sink, 64, codec).unwrap();
            w.write_events(&events).unwrap();
            w.finish().expect("a sink that holds the whole file");
        }
    }

    #[test]
    fn chunk_sizes_past_the_format_bound_are_rejected() {
        for chunk_events in [0, MAX_CHUNK_EVENTS + 1, u32::MAX] {
            let err =
                TraceWriter::new(Cursor::new(Vec::new()), chunk_events, Codec::Raw).unwrap_err();
            assert!(matches!(err, TraceFileError::BadHeader { .. }), "{err}");
        }
        // The bound itself is a valid chunk size, and pushing one event
        // past it starts a second chunk.
        let events = vec![sample(1)[0]; MAX_CHUNK_EVENTS as usize + 1];
        let bytes = write_to_vec(&events, MAX_CHUNK_EVENTS, Codec::Sequitur);
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.chunk_count(), 2);
        assert_eq!(r.read_all().unwrap(), events);
    }

    #[test]
    fn written_files_match_the_golden_digests() {
        // Pins every byte `TraceWriter` writes, in both codecs: 15,000
        // OLTP events in 4,096-event chunks (the last one short), with
        // exact repeats for the grammar to find. The digests are FNV-1a
        // over the whole file, recorded from the single-threaded writer
        // that preceded the write-behind encoder.
        let base: Vec<AccessEvent> = catalog::oltp().generator(0x601D).take(6_000).collect();
        let mut events = base.clone();
        for _ in 0..3 {
            events.extend_from_slice(&base[1_000..3_500]);
        }
        events.extend_from_slice(&base[..1_500]);
        for (codec, len, digest) in [
            (Codec::Raw, 360_168, 0x2450_c5a5_95ef_327c),
            (Codec::Sequitur, 375_540, 0x62b4_04c1_3c30_76c7),
        ] {
            let bytes = write_to_vec(&events, 4096, codec);
            assert_eq!(
                (bytes.len(), fnv_bytes(FNV_BASIS, &bytes)),
                (len, digest),
                "{} file drifted",
                codec.label()
            );
        }
    }

    #[test]
    fn digests_are_fnv_over_record_images_one_chain_or_two() {
        let events = sample(700);
        let mut image = Vec::new();
        for ev in &events {
            let mut rec = [0u8; RECORD_BYTES];
            encode_record(ev, &mut rec);
            image.extend_from_slice(&rec);
        }
        assert_eq!(digest_events(&events), fnv_bytes(FNV_BASIS, &image));
        for (a, b) in [(0, 0), (0, 5), (5, 0), (300, 300), (299, 700), (700, 1)] {
            let (x, y) = (&events[..a], &events[events.len() - b..]);
            assert_eq!(
                digest_pair(x, y),
                (digest_events(x), digest_events(y)),
                "{a}+{b}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_digest() {
        let events = sample(200);
        let mut bytes = write_to_vec(&events, 64, Codec::Raw);
        bytes[HEADER_BYTES as usize + 3] ^= 0x40; // inside chunk 0's pc field
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        let err = r.read_all().unwrap_err();
        assert!(
            matches!(err, TraceFileError::DigestMismatch { chunk: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn digest_is_codec_independent() {
        let events = sample(500);
        let raw = write_to_vec(&events, 128, Codec::Raw);
        let seq = write_to_vec(&events, 128, Codec::Sequitur);
        let raw_r = TraceReader::new(Cursor::new(raw)).unwrap();
        let seq_r = TraceReader::new(Cursor::new(seq)).unwrap();
        for idx in 0..raw_r.chunk_count() {
            assert_eq!(raw_r.index[idx].digest, seq_r.index[idx].digest);
        }
    }
}
