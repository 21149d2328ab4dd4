//! One benchmark per paper table/figure: each runs the figure's full
//! pipeline (workload generation → L1 filter → prefetchers → metrics)
//! at reduced scale, so `cargo bench` both regenerates every figure's
//! machinery and tracks the harness's performance over time. Every
//! iteration takes a fresh sweep; a reused one would time finished
//! cells.

use domino_bench::Harness;
use domino_sim::figures::{
    fig01, fig02, fig03, fig04, fig05, fig06, fig09, fig10, fig11, fig12, fig13, fig14, fig15,
    fig16, Scale, Sweep,
};
use std::hint::black_box;
use std::time::Duration;

fn bench_scale() -> Scale {
    Scale {
        events: 12_000,
        seed: 42,
    }
}

fn main() {
    let scale = bench_scale();
    let mut h = Harness::new("figures")
        .warmup(Duration::from_millis(500))
        .budget(Duration::from_secs(3));
    h.bench("fig01_coverage_vs_opportunity", 1, || {
        black_box(fig01(&mut Sweep::new(scale)))
    });
    h.bench("fig02_stream_lengths", 1, || {
        black_box(fig02(&mut Sweep::new(scale)))
    });
    h.bench("fig03_lookup_accuracy", 1, || {
        black_box(fig03(&mut Sweep::new(scale)))
    });
    h.bench("fig04_lookup_match_rate", 1, || {
        black_box(fig04(&mut Sweep::new(scale)))
    });
    h.bench("fig05_multi_depth", 1, || {
        black_box(fig05(&mut Sweep::new(scale)))
    });
    h.bench("fig06_stream_start_timeliness", 1, || {
        black_box(fig06(&mut Sweep::new(scale)))
    });
    h.bench("fig09_ht_sweep", 1, || black_box(fig09(&Sweep::new(scale))));
    h.bench("fig10_eit_sweep", 1, || {
        black_box(fig10(&Sweep::new(scale)))
    });
    h.bench("fig11_roster_degree1", 1, || {
        black_box(fig11(&mut Sweep::new(scale)))
    });
    h.bench("fig12_stream_histogram", 1, || {
        black_box(fig12(&mut Sweep::new(scale)))
    });
    h.bench("fig13_roster_degree4", 1, || {
        black_box(fig13(&mut Sweep::new(scale)))
    });
    h.bench("fig14_speedups", 1, || {
        black_box(fig14(&mut Sweep::new(scale)))
    });
    h.bench("fig15_traffic_overhead", 1, || {
        black_box(fig15(&mut Sweep::new(scale)))
    });
    h.bench("fig16_spatio_temporal", 1, || {
        black_box(fig16(&mut Sweep::new(scale)))
    });
}
