//! Degenerate-trace tests: every roster system through both replay
//! engines (and the shared-channel multicore model) on the pathological
//! inputs a fuzzer loves — empty traces, single events, a single
//! endlessly repeated address, and lines at the top of the address
//! space where `LineAddr::offset` wraps.
//!
//! These runs assert totality plus the basic accounting identities that
//! must hold on *any* input; the deeper metric identities live in
//! `domino_check::oracle`.

use domino_sim::roster::System;
use domino_sim::{
    run_coverage, run_coverage_with_batch, run_multicore, run_timing, run_timing_with_batch,
    SystemConfig,
};
use domino_trace::addr::{Addr, Pc, LINE_BYTES};
use domino_trace::event::{AccessEvent, AccessKind};

const DEGREE: usize = 4;

fn read(pc: u64, addr: u64) -> AccessEvent {
    AccessEvent::read(Pc::new(pc), Addr::new(addr))
}

/// Name, trace — one entry per degenerate shape.
fn degenerate_traces() -> Vec<(&'static str, Vec<AccessEvent>)> {
    let top = u64::MAX - (LINE_BYTES - 1); // start of the last line
    vec![
        ("empty", Vec::new()),
        ("single-event", vec![read(1, 0x1000)]),
        (
            "all-same-address",
            (0..200).map(|_| read(7, 0xBEEF_0000)).collect(),
        ),
        (
            "write-only-same-address",
            (0..50)
                .map(|_| AccessEvent {
                    pc: Pc::new(3),
                    addr: Addr::new(0xD00D_0000),
                    kind: AccessKind::Write,
                    gap_insts: 0,
                    dependent: false,
                })
                .collect(),
        ),
        (
            // Walk the last lines of the address space so next-line and
            // stride predictions wrap around `u64::MAX`.
            "max-line-boundary",
            (0..32)
                .map(|i| read(5, top - i * LINE_BYTES))
                .chain((0..32).map(|i| read(5, u64::MAX - i)))
                .collect(),
        ),
    ]
}

/// Structural guard for the suite's coverage: every test here iterates
/// `System::all()`, so the post-Domino rivals are exercised exactly as
/// long as they stay registered. A silent roster regression would
/// otherwise shrink this suite without failing anything.
#[test]
fn roster_includes_the_modern_rivals() {
    let all = System::all();
    for sys in [System::Pangloss, System::Triangel] {
        assert!(
            all.contains(&sys),
            "{} missing from System::all(); the degenerate-trace suite \
             no longer covers it",
            sys.label()
        );
    }
}

#[test]
fn every_system_survives_degenerate_traces() {
    let cfg = SystemConfig::paper();
    let one_core = SystemConfig {
        cores: 1,
        ..SystemConfig::paper()
    };
    for (name, trace) in degenerate_traces() {
        for sys in System::all() {
            let label = sys.label();
            let cov = run_coverage(&cfg, &trace, sys.build(DEGREE).as_mut());
            assert_eq!(
                cov.accesses,
                trace.len() as u64,
                "{label} on {name}: access count"
            );
            assert!(
                cov.covered <= cov.baseline_misses,
                "{label} on {name}: covered {} > baseline misses {}",
                cov.covered,
                cov.baseline_misses
            );
            assert!(
                cov.read_covered <= cov.covered,
                "{label} on {name}: read subset exceeds total"
            );

            let tim = run_timing(&cfg, &trace, sys.build(DEGREE).as_mut());
            assert!(
                tim.total_ns.is_finite() && tim.total_ns >= 0.0,
                "{label} on {name}: non-finite time {}",
                tim.total_ns
            );
            assert_eq!(
                tim.timely_hits + tim.late_hits + tim.full_misses,
                cov.baseline_misses,
                "{label} on {name}: timing miss classes disagree with coverage"
            );

            let multi = run_multicore(&one_core, vec![trace.clone()], vec![sys.build(DEGREE)]);
            assert_eq!(multi.per_core.len(), 1);
            assert_eq!(
                multi.per_core[0].full_misses, tim.full_misses,
                "{label} on {name}: one-core multicore diverged from single-core"
            );
        }
    }
}

/// Batch-boundary pathology: the degenerate shapes hit every edge the
/// step loops have — zero steps (empty trace), one single-event step,
/// trace lengths that are not a batch multiple, and batches larger than
/// the whole trace. Every roster system must produce byte-identical
/// reports at batch 1 and at every other batch size, and a one-core
/// multicore run (which has no batch) must match single-core timing at
/// each of them.
#[test]
fn batched_engines_match_scalar_on_degenerate_traces() {
    let cfg = SystemConfig::paper();
    let one_core = SystemConfig {
        cores: 1,
        ..SystemConfig::paper()
    };
    for (name, trace) in degenerate_traces() {
        for sys in System::all() {
            let label = sys.label();
            let cov_one = format!(
                "{:?}",
                run_coverage_with_batch(&cfg, &trace, sys.build(DEGREE).as_mut(), 0, 1)
            );
            let tim_one = format!(
                "{:?}",
                run_timing_with_batch(&cfg, &trace, sys.build(DEGREE).as_mut(), 0, 1)
            );
            let multi = format!(
                "{:?}",
                run_multicore(&one_core, vec![trace.clone()], vec![sys.build(DEGREE)]).per_core[0]
            );
            for batch in [1u32, 2, 3, 64] {
                let cov = format!(
                    "{:?}",
                    run_coverage_with_batch(&cfg, &trace, sys.build(DEGREE).as_mut(), 0, batch)
                );
                assert_eq!(
                    cov_one, cov,
                    "{label} on {name}: coverage diverged at batch {batch}"
                );
                let tim = format!(
                    "{:?}",
                    run_timing_with_batch(&cfg, &trace, sys.build(DEGREE).as_mut(), 0, batch)
                );
                assert_eq!(
                    tim_one, tim,
                    "{label} on {name}: timing diverged at batch {batch}"
                );
                let one_core_tim = format!(
                    "{:?}",
                    run_timing_with_batch(&one_core, &trace, sys.build(DEGREE).as_mut(), 0, batch)
                );
                assert_eq!(
                    multi, one_core_tim,
                    "{label} on {name}: one-core multicore diverged from timing at batch {batch}"
                );
            }
        }
    }
}

/// The empty trace specifically must report all-zero metrics — not
/// merely avoid panicking — through both engines.
#[test]
fn empty_trace_reports_zeros() {
    let cfg = SystemConfig::paper();
    for sys in System::all() {
        let cov = run_coverage(&cfg, &[], sys.build(DEGREE).as_mut());
        assert_eq!(cov.accesses, 0);
        assert_eq!(cov.baseline_misses, 0);
        assert_eq!(cov.covered, 0);
        assert_eq!(cov.prefetches_issued, 0, "{}", sys.label());
        let tim = run_timing(&cfg, &[], sys.build(DEGREE).as_mut());
        assert_eq!(tim.total_ns, 0.0);
        assert_eq!(tim.instructions, 0);
    }
}

// ---------------------------------------------------------------------
// Malformed `DMNOTRC1` inputs: every way a trace file can be broken —
// empty, truncated mid-header, wrong magic, torn final record,
// misaligned chunk index, flipped payload bytes, an unfinished writer, a
// chunk size past the format's bound — must surface as a clear
// `TraceFileError`, never a panic or an abort, through both the
// validating reader and the streaming file source.

use std::io::Cursor;

use domino_trace::stream::{
    Codec, EventSource, FileSource, TraceFileError, TraceReader, TraceWriter,
};
use domino_trace::workload::catalog;

/// A sealed in-memory trace: 100 events in 7-event chunks (the last
/// chunk short), as raw bytes ready for surgery.
fn sealed_trace_bytes(codec: Codec) -> Vec<u8> {
    let events: Vec<AccessEvent> = catalog::oltp().generator(0xDE6E).take(100).collect();
    // In memory, not a temp file: tests run in parallel, and a path
    // shared per codec let one test truncate or delete another's file.
    let mut sink = Cursor::new(Vec::new());
    let mut writer = TraceWriter::new(&mut sink, 7, codec).expect("create");
    writer.write_events(&events).expect("write");
    writer.finish().expect("finish");
    sink.into_inner()
}

fn open_err(bytes: Vec<u8>) -> TraceFileError {
    match TraceReader::new(Cursor::new(bytes)) {
        Ok(_) => panic!("malformed trace bytes validated cleanly"),
        Err(e) => e,
    }
}

#[test]
fn empty_file_is_a_truncated_header() {
    let err = open_err(Vec::new());
    assert!(
        matches!(err, TraceFileError::TruncatedHeader { len: 0 }),
        "{err}"
    );
    assert!(!err.to_string().is_empty());
}

#[test]
fn truncated_header_is_reported_at_every_cut() {
    let good = sealed_trace_bytes(Codec::Raw);
    for cut in [1usize, 7, 8, 16, 39] {
        let err = open_err(good[..cut].to_vec());
        match err {
            TraceFileError::TruncatedHeader { len } => assert_eq!(len, cut as u64),
            // Cuts shorter than the magic may also legitimately read as
            // a bad magic; anything else is wrong.
            TraceFileError::BadMagic { .. } => assert!(cut < 8, "cut {cut}: {err}"),
            other => panic!("cut {cut}: unexpected error {other}"),
        }
    }
}

#[test]
fn wrong_magic_is_rejected_with_the_found_bytes() {
    let mut bytes = sealed_trace_bytes(Codec::Raw);
    bytes[0..8].copy_from_slice(b"NOTADMNO");
    let err = open_err(bytes);
    match err {
        TraceFileError::BadMagic { found } => assert_eq!(&found, b"NOTADMNO"),
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn torn_final_record_is_detected_from_the_index() {
    let mut bytes = sealed_trace_bytes(Codec::Raw);
    // Shrink the last index entry's byte_len by one byte: the chunk no
    // longer holds a whole number of 24-byte records for its indexed
    // event count.
    let index_offset = u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes")) as usize;
    let entries = (bytes.len() - index_offset) / 32;
    let last = index_offset + (entries - 1) * 32;
    let byte_len = u64::from_le_bytes(bytes[last + 8..last + 16].try_into().expect("8 bytes"));
    bytes[last + 8..last + 16].copy_from_slice(&(byte_len - 1).to_le_bytes());
    let err = open_err(bytes);
    match err {
        TraceFileError::TornRecord {
            chunk,
            byte_len: torn,
        } => {
            assert_eq!(chunk, entries - 1);
            assert_eq!(torn, byte_len - 1);
        }
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn misaligned_index_offset_is_rejected_in_both_directions() {
    for (codec, delta) in [(Codec::Raw, 1i64), (Codec::Raw, -1), (Codec::Sequitur, 1)] {
        let mut bytes = sealed_trace_bytes(codec);
        let index_offset = u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes"));
        let skewed = index_offset.wrapping_add_signed(delta);
        bytes[32..40].copy_from_slice(&skewed.to_le_bytes());
        let err = open_err(bytes);
        assert!(
            matches!(err, TraceFileError::BadIndex { .. }),
            "{} offset {delta:+}: unexpected error {err}",
            codec.label()
        );
    }
}

#[test]
fn unfinished_writer_leaves_a_rejected_file() {
    // A crashed writer never rewrites the header, so index_offset is 0.
    let mut bytes = sealed_trace_bytes(Codec::Raw);
    bytes[16..40].copy_from_slice(&[0u8; 24][..]);
    bytes[24..28].copy_from_slice(&7u32.to_le_bytes()); // chunk_events stays valid
    let err = open_err(bytes);
    assert!(matches!(err, TraceFileError::BadIndex { .. }), "{err}");
}

#[test]
fn flipped_payload_bytes_fail_the_chunk_digest() {
    for codec in [Codec::Raw, Codec::Sequitur] {
        let mut bytes = sealed_trace_bytes(codec);
        // Flip one bit inside the first chunk's first record image (a
        // pc byte, so the record still decodes) and stream the file:
        // the digest check must catch it.
        bytes[41] ^= 0x01;
        let mut reader = TraceReader::new(Cursor::new(bytes)).expect("header/index intact");
        let mut out = Vec::new();
        let mut saw_error = false;
        for idx in 0..reader.chunk_count() {
            if let Err(err) = reader.read_chunk_into(idx, &mut out) {
                assert!(
                    matches!(
                        err,
                        TraceFileError::DigestMismatch { chunk: 0, .. }
                            | TraceFileError::BadGrammar { chunk: 0, .. }
                            | TraceFileError::BadRecord { chunk: 0, .. }
                    ),
                    "{}: unexpected error {err}",
                    codec.label()
                );
                saw_error = true;
                break;
            }
        }
        assert!(
            saw_error,
            "{}: corrupted chunk decoded cleanly",
            codec.label()
        );
    }
}

#[test]
fn file_source_propagates_malformed_files_without_panicking() {
    let path = std::env::temp_dir().join(format!(
        "domino-degenerate-source-{}.dmno",
        std::process::id()
    ));
    // Not a trace at all.
    std::fs::write(&path, b"NOTADMNO-and-then-some-garbage-bytes").expect("write junk");
    match FileSource::open(&path) {
        Ok(_) => panic!("junk file opened as a trace"),
        Err(TraceFileError::BadMagic { .. }) => {}
        Err(other) => panic!("unexpected error {other}"),
    }
    // Valid header/index but a corrupted payload: the error must arrive
    // through next_chunk, from the read-ahead thread, not a panic.
    let mut bytes = sealed_trace_bytes(Codec::Raw);
    bytes[41] ^= 0x01;
    std::fs::write(&path, &bytes).expect("write corrupted trace");
    let mut source = FileSource::open(&path).expect("header and index are intact");
    let mut chunk = Vec::new();
    let mut saw_error = false;
    loop {
        match source.next_chunk(&mut chunk) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(err) => {
                assert!(
                    matches!(err, TraceFileError::DigestMismatch { .. }),
                    "unexpected error {err}"
                );
                saw_error = true;
                break;
            }
        }
    }
    assert!(saw_error, "corrupted payload streamed cleanly");
    std::fs::remove_file(&path).ok();
}

/// A 112-byte file whose header and index agree on one Sequitur chunk of
/// `u32::MAX` events, followed by a 1-entry dictionary (an all-zero
/// record) and a 1-symbol grammar. `tools/check.sh` writes the same bytes.
fn hostile_chunk_size_bytes() -> Vec<u8> {
    let claim = u32::MAX;
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"DMNOTRC1");
    bytes.extend_from_slice(&1u32.to_le_bytes()); // version
    bytes.extend_from_slice(&24u32.to_le_bytes()); // record bytes
    bytes.extend_from_slice(&u64::from(claim).to_le_bytes()); // events
    bytes.extend_from_slice(&claim.to_le_bytes()); // chunk events
    bytes.extend_from_slice(&1u32.to_le_bytes()); // codec: sequitur
    bytes.extend_from_slice(&80u64.to_le_bytes()); // index offset
    bytes.extend_from_slice(&1u32.to_le_bytes()); // dictionary length
    bytes.extend_from_slice(&[0u8; 24]); // the one record
    bytes.extend_from_slice(&1u32.to_le_bytes()); // rule count
    bytes.extend_from_slice(&1u32.to_le_bytes()); // start rule length
    bytes.extend_from_slice(&0u32.to_le_bytes()); // dictionary id 0
    bytes.extend_from_slice(&40u64.to_le_bytes()); // chunk offset
    bytes.extend_from_slice(&40u64.to_le_bytes()); // chunk byte length
    bytes.extend_from_slice(&claim.to_le_bytes()); // chunk events
    bytes.extend_from_slice(&[0u8; 12]); // reserved, digest
    bytes
}

#[test]
fn hostile_chunk_size_is_a_bad_header() {
    let bytes = hostile_chunk_size_bytes();
    assert_eq!(bytes.len(), 112);
    // Buffers sized from the claimed chunk would hold about 100 GB of
    // records, and a failed allocation aborts the whole test binary: the
    // header must be refused before anything is sized from it.
    match TraceReader::new(Cursor::new(bytes.clone())) {
        Ok(mut reader) => {
            let _ = reader.read_all();
            panic!("a chunk of u32::MAX events validated cleanly");
        }
        Err(err) => assert!(
            matches!(err, TraceFileError::BadHeader { .. }),
            "unexpected error {err}"
        ),
    }
    let path = std::env::temp_dir().join(format!(
        "domino-degenerate-hostile-{}.dmno",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).expect("write hostile trace");
    let opened = FileSource::open(&path);
    std::fs::remove_file(&path).ok();
    match opened {
        Ok(_) => panic!("FileSource opened a chunk of u32::MAX events"),
        Err(TraceFileError::BadHeader { .. }) => {}
        Err(other) => panic!("unexpected error {other}"),
    }
}
