#!/usr/bin/env python3
"""Validates `DMNOTRC1` trace files emitted by domino-ingest.

Usage: validate_ingest.py <trace.dmno>...

An independent stdlib-only reimplementation of the `DMNOTRC1` container
documented in crates/trace/src/stream/format.rs, so format drift between
the Rust writer and this checker fails CI. Checks per file:

  * magic, version, record size, codec, and header/index geometry,
    with chunk_events at most MAX_CHUNK_EVENTS (format.rs);
  * the chunk index is contiguous (payloads back to back from byte 40
    up to index_offset, no gaps or overlaps, no trailing bytes);
  * every chunk decodes — raw chunks as whole 24-byte records with
    strict field validation, Sequitur chunks by expanding the per-chunk
    dictionary + grammar exactly as compress.rs does;
  * the FNV-1a digest over each chunk's decoded record images matches
    the index entry (codec-independently);
  * per-chunk event counts sum to the header's total.

When given several files, additionally asserts they all decode to the
same event sequence — this is how check.sh cross-checks that a raw
trace and its Sequitur re-encoding are the same trace.
"""

import struct
import sys
from pathlib import Path

MAGIC = b"DMNOTRC1"
VERSION = 1
RECORD_BYTES = 24
HEADER_BYTES = 40
INDEX_ENTRY_BYTES = 32
CODEC_RAW, CODEC_SEQUITUR = 0, 1
MAX_CHUNK_EVENTS = 1 << 20

FNV_BASIS = 0xCBF2_9CE4_8422_2325
FNV_PRIME = 0x0000_0100_0000_01B3
MASK64 = (1 << 64) - 1
RULE_BIT = 0x8000_0000


def fail(path, msg):
    sys.exit(f"validate_ingest: {path}: {msg}")


def fnv1a(data, h=FNV_BASIS):
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def check_record(rec, where):
    """Strict field validation mirroring format.rs decode_record."""
    kind, dependent, pad_hi, pad_lo = rec[20], rec[21], rec[22], rec[23]
    if kind not in (0, 1):
        raise ValueError(f"{where}: invalid kind byte {kind:#04x}")
    if dependent not in (0, 1):
        raise ValueError(f"{where}: invalid dependent byte {dependent:#04x}")
    if pad_hi != 0 or pad_lo != 0:
        raise ValueError(f"{where}: nonzero pad bytes {pad_hi:#04x} {pad_lo:#04x}")


def decode_raw_chunk(payload, events, chunk):
    if len(payload) != events * RECORD_BYTES:
        raise ValueError(
            f"chunk {chunk}: {len(payload)} bytes is not {events} whole records"
        )
    records = []
    for i in range(events):
        rec = payload[i * RECORD_BYTES : (i + 1) * RECORD_BYTES]
        check_record(rec, f"chunk {chunk} record {i}")
        records.append(bytes(rec))
    return records


def decode_sequitur_chunk(payload, events, chunk):
    """Dictionary + serialized grammar expansion mirroring compress.rs."""
    pos = 0

    def u32(what):
        nonlocal pos
        if pos + 4 > len(payload):
            raise ValueError(f"chunk {chunk}: payload truncated reading {what}")
        (v,) = struct.unpack_from("<I", payload, pos)
        pos += 4
        return v

    dict_len = u32("dictionary length")
    if dict_len > events:
        raise ValueError(
            f"chunk {chunk}: dictionary of {dict_len} entries exceeds {events} events"
        )
    dict_end = pos + dict_len * RECORD_BYTES
    if dict_end > len(payload):
        raise ValueError(f"chunk {chunk}: payload truncated inside dictionary")
    dictionary = []
    for i in range(dict_len):
        rec = payload[pos + i * RECORD_BYTES : pos + (i + 1) * RECORD_BYTES]
        check_record(rec, f"chunk {chunk} dictionary entry {i}")
        dictionary.append(bytes(rec))
    pos = dict_end

    rule_len = u32("rule count")
    if rule_len == 0:
        raise ValueError(f"chunk {chunk}: no rules (start rule required)")
    rules = []
    for r in range(rule_len):
        sym_len = u32("rule body length")
        body = []
        for _ in range(sym_len):
            word = u32("symbol")
            if word & RULE_BIT:
                idx = word & ~RULE_BIT
                if idx >= rule_len or idx == 0:
                    raise ValueError(
                        f"chunk {chunk}: rule {r} references invalid rule {idx}"
                    )
            elif word >= dict_len:
                raise ValueError(
                    f"chunk {chunk}: rule {r} references dictionary id "
                    f"{word} >= {dict_len}"
                )
            body.append(word)
        rules.append(body)
    if pos != len(payload):
        raise ValueError(
            f"chunk {chunk}: {len(payload) - pos} trailing bytes after the grammar"
        )

    # Expand the start rule with an explicit stack, capped so hostile
    # cyclic grammars terminate with an error instead of looping. A
    # Sequitur derivation takes under three steps per event.
    total_syms = sum(len(b) for b in rules)
    step_limit = events * 3 + total_syms * 2 + 64
    out = []
    stack = [(0, 0)]
    steps = 0
    while stack:
        rule, sym_pos = stack.pop()
        steps += 1
        if steps > step_limit:
            raise ValueError(f"chunk {chunk}: grammar expansion does not terminate")
        body = rules[rule]
        if sym_pos >= len(body):
            continue
        word = body[sym_pos]
        stack.append((rule, sym_pos + 1))
        if word & RULE_BIT:
            if len(stack) > len(rules) + 1:
                raise ValueError(
                    f"chunk {chunk}: grammar recursion exceeds rule count (cycle)"
                )
            stack.append((word & ~RULE_BIT, 0))
        else:
            if len(out) == events:
                raise ValueError(
                    f"chunk {chunk}: grammar expands past the indexed {events} events"
                )
            out.append(dictionary[word])
    if len(out) != events:
        raise ValueError(
            f"chunk {chunk}: grammar expands to {len(out)} events, "
            f"index says {events}"
        )
    return out


def validate_file(path):
    """Returns the decoded record-image sequence of one trace file."""
    data = Path(path).read_bytes()
    if len(data) < HEADER_BYTES:
        fail(path, f"truncated header: file is {len(data)} bytes, need {HEADER_BYTES}")
    magic = data[:8]
    if magic != MAGIC:
        fail(path, f"bad magic {magic!r}, expected {MAGIC!r}")
    version, record_bytes = struct.unpack_from("<II", data, 8)
    (total_events,) = struct.unpack_from("<Q", data, 16)
    chunk_events, codec = struct.unpack_from("<II", data, 24)
    (index_offset,) = struct.unpack_from("<Q", data, 32)
    if version != VERSION:
        fail(path, f"unsupported version {version}")
    if record_bytes != RECORD_BYTES:
        fail(path, f"record_bytes {record_bytes}, expected {RECORD_BYTES}")
    if codec not in (CODEC_RAW, CODEC_SEQUITUR):
        fail(path, f"unknown codec {codec}")
    if chunk_events == 0 and total_events != 0:
        fail(path, f"chunk_events 0 with {total_events} events")
    if chunk_events > MAX_CHUNK_EVENTS:
        fail(path, f"chunk_events {chunk_events} exceeds MAX_CHUNK_EVENTS ({MAX_CHUNK_EVENTS})")

    chunk_count = (total_events + chunk_events - 1) // chunk_events if total_events else 0
    index_bytes = chunk_count * INDEX_ENTRY_BYTES
    if index_offset < HEADER_BYTES or index_offset + index_bytes != len(data):
        fail(
            path,
            f"index geometry: offset {index_offset} + {index_bytes} index bytes "
            f"does not end the {len(data)}-byte file",
        )

    records = []
    expect_offset = HEADER_BYTES
    seen_events = 0
    for chunk in range(chunk_count):
        offset, byte_len, events, reserved, digest = struct.unpack_from(
            "<QQIIQ", data, index_offset + chunk * INDEX_ENTRY_BYTES
        )
        if reserved != 0:
            fail(path, f"chunk {chunk}: nonzero reserved field {reserved}")
        if offset != expect_offset:
            fail(
                path,
                f"chunk {chunk}: payload at {offset}, expected contiguous {expect_offset}",
            )
        if offset + byte_len > index_offset:
            fail(path, f"chunk {chunk}: payload overruns the index")
        want = chunk_events if chunk + 1 < chunk_count else total_events - seen_events
        if events != want:
            fail(path, f"chunk {chunk}: {events} events, expected {want}")
        payload = data[offset : offset + byte_len]
        try:
            if codec == CODEC_RAW:
                decoded = decode_raw_chunk(payload, events, chunk)
            else:
                decoded = decode_sequitur_chunk(payload, events, chunk)
        except ValueError as e:
            fail(path, str(e))
        actual = fnv1a(b"".join(decoded))
        if actual != digest:
            fail(
                path,
                f"chunk {chunk}: digest mismatch: index says {digest:#018x}, "
                f"payload decodes to {actual:#018x}",
            )
        records.extend(decoded)
        expect_offset = offset + byte_len
        seen_events += events
    if expect_offset != index_offset:
        fail(path, f"{index_offset - expect_offset} unindexed bytes before the index")
    if seen_events != total_events:
        fail(path, f"chunks hold {seen_events} events, header says {total_events}")

    codec_name = "raw" if codec == CODEC_RAW else "sequitur"
    print(
        f"validate_ingest: OK {path}: {total_events} events in {chunk_count} "
        f"chunks ({codec_name}, {len(data)} bytes)"
    )
    return records


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    decoded = [(p, validate_file(p)) for p in argv[1:]]
    first_path, first = decoded[0]
    for path, records in decoded[1:]:
        if records != first:
            fail(path, f"decodes to a different event sequence than {first_path}")
    if len(decoded) > 1:
        print(
            f"validate_ingest: OK all {len(decoded)} files decode to the same "
            f"{len(first)}-event sequence"
        )


if __name__ == "__main__":
    main(sys.argv)
