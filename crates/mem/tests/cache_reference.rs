//! Layout-parity proof for the flat [`SetAssocCache`].
//!
//! The cache used to store each set as its own `Vec<LineAddr>` in
//! replacement order (`remove(pos)` + `push` promotion). The flat layout
//! replaced that with one contiguous slab and `rotate_left` on the
//! occupied prefix — a pure storage change. The old layout lives on as
//! [`domino_check::reference::ReferenceCache`] (where the differential
//! checker also drives it); this test runs both implementations through
//! exhaustive small-config pseudo-random op streams, asserting identical
//! hit/miss results, eviction victims, invalidation outcomes, and
//! counters at every step.
//!
//! The op streams include the fused demand probe
//! [`SetAssocCache::access_insert`], every engine's only L1 path, held
//! to the reference's `access` plus insert-on-miss.

use domino_check::reference::ReferenceCache;
use domino_mem::cache::{CacheConfig, Replacement, SetAssocCache};
use domino_trace::addr::{LineAddr, LINE_BYTES};

/// Deterministic op-stream driver comparing both models step by step.
fn drive(config: CacheConfig, ops: usize, seed: u64) {
    let mut flat = SetAssocCache::new(config);
    let mut reference = ReferenceCache::new(config);
    // Address pool ~2x capacity so sets overflow and evict regularly.
    let pool = (config.sets() * config.ways * 2) as u64;
    let mut rng = seed | 1;
    for step in 0..ops {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let line = LineAddr::new((rng >> 8) % pool);
        let ctx = format!(
            "step {step}, line {} ({:?}, {} ways)",
            line.raw(),
            config.replacement,
            config.ways
        );
        match rng % 13 {
            0..=2 => {
                assert_eq!(flat.access(line), reference.access(line), "access: {ctx}");
            }
            3..=5 => {
                assert_eq!(flat.insert(line), reference.insert(line), "insert: {ctx}");
            }
            6..=9 => {
                let hit = reference.access(line);
                let victim = if hit { None } else { reference.insert(line) };
                assert_eq!(
                    flat.access_insert(line),
                    (hit, victim),
                    "access_insert: {ctx}"
                );
            }
            10 => {
                assert_eq!(
                    flat.invalidate(line),
                    reference.invalidate(line),
                    "invalidate: {ctx}"
                );
            }
            _ => {
                assert_eq!(
                    flat.contains(line),
                    reference.contains(line),
                    "contains: {ctx}"
                );
            }
        }
        assert_eq!(flat.len(), reference.len(), "occupancy: {ctx}");
    }
    assert_eq!(
        flat.hit_miss(),
        reference.hit_miss(),
        "final counters ({:?}, {} ways)",
        config.replacement,
        config.ways
    );
}

#[test]
fn flat_cache_matches_per_set_vec_reference_exhaustively() {
    for replacement in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
        for ways in [1usize, 2, 3, 4, 8] {
            for sets in [1usize, 2, 4] {
                let config = CacheConfig {
                    size_bytes: (sets * ways) as u64 * LINE_BYTES,
                    ways,
                    replacement,
                };
                for seed in 1..=8u64 {
                    drive(config, 4000, 0x5eed_0000 + seed);
                }
            }
        }
    }
}

#[test]
fn flat_cache_matches_reference_on_paper_geometry() {
    drive(CacheConfig::l1d(), 20_000, 0xd0d0);
    drive(
        CacheConfig {
            replacement: Replacement::Random,
            ..CacheConfig::l1d()
        },
        20_000,
        0xd0d1,
    );
}
