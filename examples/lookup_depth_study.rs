//! Lookup-depth study (paper §II, Figures 3–5): sweep the number of miss
//! addresses a temporal lookup matches against, measuring accuracy,
//! match rate, and end-to-end coverage/overpredictions of the recursive
//! multi-depth prefetcher.
//!
//! ```sh
//! cargo run --release --example lookup_depth_study
//! ```

use domino_repro::sim::figures::{fig03, fig04, fig05, Scale, Sweep};

fn main() {
    // One sweep: Figures 3 and 4 read the same lookup-depth analysis.
    let mut sweep = Sweep::new(Scale {
        events: 250_000,
        seed: 42,
    });
    println!("{}", fig03(&mut sweep));
    println!("{}", fig04(&mut sweep));
    for table in fig05(&mut sweep) {
        println!("{table}");
    }
    println!(
        "Reading the three tables together gives the paper's §II conclusion:\n\
         accuracy saturates at two addresses while match rate keeps falling,\n\
         so a prefetcher should combine one- and two-address lookups — Domino."
    );
}
