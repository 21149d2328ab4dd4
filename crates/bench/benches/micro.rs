//! Microbenchmarks of the substrates: per-event prefetcher costs, EIT
//! operations, hasher comparison, Sequitur throughput, the Sequitur trace
//! codec's chunk encode, workload generation, and the cache model — the
//! hot paths of the whole reproduction.

use domino::{Domino, DominoConfig, Eit, EitConfig};
use domino_bench::Harness;
use domino_mem::cache::{CacheConfig, SetAssocCache};
use domino_mem::interface::{CollectSink, Prefetcher, TriggerEvent};
use domino_prefetchers::{Stms, TemporalConfig};
use domino_sequitur::oracle::{oracle_replay, OracleConfig};
use domino_sequitur::Sequitur;
use domino_trace::addr::{LineAddr, Pc};
use domino_trace::event::AccessEvent;
use domino_trace::hash::FxHashMap;
use domino_trace::stream::{Codec, TraceWriter, DEFAULT_CHUNK_EVENTS};
use domino_trace::workload::catalog;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Cursor;

const N: usize = 20_000;

fn miss_lines() -> Vec<u64> {
    let spec = catalog::oltp();
    spec.generator(42).take(N).map(|e| e.line().raw()).collect()
}

fn workload_generation(h: &mut Harness) {
    h.bench("workload_generation/oltp_events", N as u64, || {
        let spec = catalog::oltp();
        black_box(spec.generator(42).take(N).count())
    });
}

fn cache_model(h: &mut Harness) {
    let lines = miss_lines();
    let n = lines.len() as u64;
    h.bench("cache/l1_access_insert", n, || {
        let mut l1 = SetAssocCache::new(CacheConfig::l1d());
        for &l in &lines {
            let line = LineAddr::new(l);
            if !l1.access(line) {
                l1.insert(line);
            }
        }
        black_box(l1.len())
    });
}

fn prefetcher_event_throughput(h: &mut Harness) {
    let lines = miss_lines();
    let n = lines.len() as u64;
    h.bench("prefetcher_events/stms", n, || {
        let mut p = Stms::new(TemporalConfig::default());
        let mut sink = CollectSink::new();
        for &l in &lines {
            sink.clear();
            p.on_trigger(&TriggerEvent::miss(Pc::new(0), LineAddr::new(l)), &mut sink);
        }
        black_box(sink.requests.len())
    });
    h.bench("prefetcher_events/domino", n, || {
        let mut p = Domino::new(DominoConfig {
            eit: EitConfig {
                rows: 1 << 16,
                ..EitConfig::default()
            },
            ht_entries: 1 << 20,
            ..DominoConfig::default()
        });
        let mut sink = CollectSink::new();
        for &l in &lines {
            sink.clear();
            p.on_trigger(&TriggerEvent::miss(Pc::new(0), LineAddr::new(l)), &mut sink);
        }
        black_box(sink.requests.len())
    });
}

fn eit_operations(h: &mut Harness) {
    let lines = miss_lines();
    let n = lines.len() as u64;
    h.bench("eit/update_lookup", n, || {
        let mut eit = Eit::new(EitConfig {
            rows: 1 << 14,
            ..EitConfig::default()
        });
        let mut hits = 0u64;
        for w in lines.windows(2) {
            eit.update(LineAddr::new(w[0]), LineAddr::new(w[1]), 0);
            if eit.lookup(LineAddr::new(w[1])).is_some() {
                hits += 1;
            }
        }
        black_box(hits)
    });
}

/// Head-to-head: std SipHash map vs the FxHash map now used on the EIT
/// lookup path, on the exact access pattern the EIT sees (update the
/// predecessor's entry, probe the successor).
fn hasher_comparison(h: &mut Harness) {
    let lines = miss_lines();
    let n = lines.len() as u64;
    h.bench("hasher/siphash_map_update_lookup", n, || {
        let mut m: HashMap<u64, u64> = HashMap::new();
        let mut hits = 0u64;
        for w in lines.windows(2) {
            *m.entry(w[0]).or_insert(0) = w[1];
            if m.contains_key(&w[1]) {
                hits += 1;
            }
        }
        black_box(hits)
    });
    h.bench("hasher/fxhash_map_update_lookup", n, || {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        let mut hits = 0u64;
        for w in lines.windows(2) {
            *m.entry(w[0]).or_insert(0) = w[1];
            if m.contains_key(&w[1]) {
                hits += 1;
            }
        }
        black_box(hits)
    });
}

fn sequitur_throughput(h: &mut Harness) {
    let lines: Vec<u64> = miss_lines().into_iter().take(6_000).collect();
    let n = lines.len() as u64;
    h.bench("sequitur/grammar_build", n, || {
        let gr = Sequitur::from_sequence(lines.iter().copied());
        black_box(gr.rule_count())
    });
    h.bench("sequitur/oracle_replay", n, || {
        black_box(oracle_replay(&lines, &OracleConfig::default()).covered)
    });
}

/// One default-sized OLTP chunk through `TraceWriter` into memory: the
/// write-behind encoder thread's digest and Sequitur encode, plus the
/// writer's start-up and index around them.
fn trace_chunk_encode(h: &mut Harness) {
    let events: Vec<AccessEvent> = catalog::oltp()
        .generator(42)
        .take(DEFAULT_CHUNK_EVENTS as usize)
        .collect();
    h.bench("trace/sequitur_chunk_encode", events.len() as u64, || {
        let mut sink = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut sink, DEFAULT_CHUNK_EVENTS, Codec::Sequitur)
            .expect("in-memory sink");
        w.write_events(black_box(&events)).expect("in-memory sink");
        w.finish().expect("in-memory sink").file_bytes
    });
}

fn main() {
    let mut h = Harness::new("micro");
    workload_generation(&mut h);
    cache_model(&mut h);
    prefetcher_event_throughput(&mut h);
    eit_operations(&mut h);
    hasher_comparison(&mut h);
    sequitur_throughput(&mut h);
    trace_chunk_encode(&mut h);
}
