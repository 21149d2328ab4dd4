//! Regenerates every table and figure of the paper's evaluation at full
//! scale and prints them in order. This is the reproduction's main
//! deliverable; EXPERIMENTS.md records one run of it against the paper's
//! numbers.
//!
//! ```sh
//! cargo run --release --example figures                     # full scale
//! cargo run --release --example figures -- 100000           # events/workload
//! cargo run --release --example figures -- 100000 out_dir   # + SVG & CSV files
//! cargo run --release --example figures -- --jobs 8         # worker threads
//! cargo run --release --example figures -- --batch 128      # event batch size
//! cargo run --release --example figures -- --epoch 50000    # per-epoch telemetry
//! cargo run --release --example figures -- --trace 65536    # flight recorder
//! ```
//!
//! All figures run on one `Sweep`, which simulates each distinct cell
//! once: a run that several figures report (Domino's degree-4 coverage,
//! say) is shared by all of them. Cells fan out across the parallel
//! sweep executor; the worker count comes from `--jobs`, else the
//! `DOMINO_JOBS` environment variable, else the host's available
//! parallelism. Output tables are byte-identical at any job count.
//!
//! `--batch N` (else a tuned default) sets the sweep's coverage step
//! and timing pollution span, in events. Every table, telemetry file
//! and trace file is byte-identical at any batch size — the
//! `batch_parity` checker oracle enforces this.
//!
//! Each run also writes `BENCH_sweep.json` (to the output directory if
//! one is given, else the working directory): per-figure wall-clock and
//! replay throughput, the job count, batch size, and host core count at
//! bench time — so the bench guard can refuse comparisons across
//! different configurations — plus a jobs-1/2/4/8 scaling curve over
//! the three heaviest figures (each point on a fresh sweep, so it
//! simulates rather than reuses; skipped when `--epoch`/`--trace`
//! observation is on) and a
//! streaming-throughput section comparing the cached-slice replay path
//! against out-of-core `DMNOTRC1` file streaming (raw and
//! Sequitur-compressed), with peak resident trace bytes and the
//! source's memory budget, and a rivals section with the per-system
//! replay throughput of the modern-rivals roster (STMS, Digram, Domino,
//! Pangloss, Triangel).
//!
//! With `--epoch N` (or the `DOMINO_EPOCH` environment variable) the
//! roster figures additionally record per-epoch telemetry — one
//! schema-versioned `telemetry_*.json` per (workload, prefetcher, kind)
//! cell plus a `TELEMETRY_sweep.json` aggregate next to
//! `BENCH_sweep.json` — rendered by `cargo run -p domino-sim --bin
//! report`. Telemetry files are byte-identical at any `--jobs` value.
//!
//! With `--trace N` (or the `DOMINO_TRACE` environment variable) the
//! same roster cells record a prefetch flight-recorder trace with an
//! N-event ring — one binary `trace_*.bin` per cell, rendered by
//! `cargo run -p domino-sim --bin explain`. Trace files are also
//! byte-identical at any `--jobs` value.

use domino_repro::sim::figures::{
    bandwidth_utilization, fig01, fig02, fig03, fig04, fig05, fig06, fig09, fig10, fig11, fig12,
    fig13, fig14, fig15, fig16, rivals, rivals_roster, table1, table2, Scale, Sweep,
};
use domino_repro::sim::{
    observe, run_timing_streamed, run_timing_with_batch, FigureTable, System, SystemConfig,
};
use domino_repro::trace::stream::{write_trace_file, Codec, EventSource, FileSource, RECORD_BYTES};
use domino_repro::trace::workload::catalog;

/// Workloads per figure (denominator of the throughput metric).
const WORKLOADS: usize = 9;

struct FigureTiming {
    name: &'static str,
    seconds: f64,
    events_per_sec: f64,
}

struct ScalingPoint {
    figure: &'static str,
    jobs: usize,
    seconds: f64,
    events_per_sec: f64,
}

struct StreamingPoint {
    source: &'static str,
    seconds: f64,
    events_per_sec: f64,
    peak_resident_bytes: u64,
    budget_bytes: u64,
}

struct RivalPoint {
    system: String,
    seconds: f64,
    events_per_sec: f64,
}

/// Replay throughput of each modern-rivals roster member on one heavy
/// timing cell (the OLTP trace at degree 4), for the bench guard's
/// per-system regression rule. Passes are interleaved across systems and
/// the median taken per system, so host clock drift between runs cancels
/// instead of biasing whichever system ran last.
fn rivals_bench(scale: &Scale, batch: u32) -> Vec<RivalPoint> {
    // Floor the trace length: at figure-smoke scales a replay lasts
    // milliseconds and the ratio would measure thread startup.
    let bench_events = scale.events.max(60_000);
    let events: Vec<_> = catalog::oltp()
        .generator(scale.seed)
        .take(bench_events)
        .collect();
    let cfg = SystemConfig::paper();
    const PASSES: usize = 3;
    let roster = rivals_roster();
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(PASSES); roster.len()];
    for _ in 0..PASSES {
        for (sys, sample) in roster.iter().zip(samples.iter_mut()) {
            let start = std::time::Instant::now();
            let mut pf = sys.build(4);
            let _ = run_timing_with_batch(&cfg, &events, pf.as_mut(), 0, batch);
            sample.push(start.elapsed().as_secs_f64());
        }
    }
    roster
        .iter()
        .zip(samples.iter_mut())
        .map(|(sys, sample)| {
            sample.sort_by(f64::total_cmp);
            let seconds = sample[sample.len() / 2];
            eprintln!("  {} in {seconds:.2}s", sys.label());
            RivalPoint {
                system: sys.label(),
                seconds,
                events_per_sec: bench_events as f64 / seconds,
            }
        })
        .collect()
}

/// Cached-slice vs out-of-core replay of one heavy timing cell (the
/// Domino timing model, the hot path of fig05/fig14/bandwidth): the same
/// OLTP trace as an in-memory slice, a raw `DMNOTRC1` file streamed
/// through the double-buffered [`FileSource`], and its
/// Sequitur-compressed re-encoding. The chunk size keeps the file at
/// least ~10x the source's memory budget, so the file-backed numbers are
/// genuinely out-of-core; `tools/bench_guard.py` holds the streamed/cached
/// ratio and the peak-resident bound. Returns the per-source points plus
/// the best file/cached throughput ratio over temporally adjacent passes
/// (the noise-immune form of the out-of-core speed bound).
fn streaming_bench(scale: &Scale, batch: u32) -> (Vec<StreamingPoint>, f64) {
    // Floor the trace length: at figure-smoke scales a replay lasts
    // milliseconds and the streamed/cached ratio would measure thread
    // startup, not throughput.
    let stream_events = scale.events.max(200_000);
    let events: Vec<_> = catalog::oltp()
        .generator(scale.seed)
        .take(stream_events)
        .collect();
    let chunk_events = (stream_events / 64).max(256) as u32;
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let raw = dir.join(format!("domino-bench-stream-{pid}-raw.dmno"));
    let seq = dir.join(format!("domino-bench-stream-{pid}-seq.dmno"));
    write_trace_file(&raw, &events, chunk_events, Codec::Raw).expect("write raw trace");
    write_trace_file(&seq, &events, chunk_events, Codec::Sequitur).expect("write seq trace");

    let cfg = SystemConfig::paper();

    // Three interleaved passes of cached -> file -> sequitur. Hosts
    // (especially shared CI machines) drift in clock frequency between
    // runs, so a single pass — or per-source aggregation across distant
    // passes — measures the drift, not the source. Reporting the median
    // per source and taking the streamed/cached ratio from temporally
    // adjacent runs within one pass cancels it.
    const PASSES: usize = 3;
    fn median(samples: &mut [f64]) -> f64 {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    }

    let mut cached_samples = Vec::with_capacity(PASSES);
    let mut file_samples = Vec::with_capacity(PASSES);
    let mut seq_samples = Vec::with_capacity(PASSES);
    let mut peaks = [0u64; 2];
    let mut budget = 0u64;
    let mut best_ratio = 0.0f64;
    for _ in 0..PASSES {
        let start = std::time::Instant::now();
        let mut pf = System::Domino.build(4);
        let cached = run_timing_with_batch(&cfg, &events, pf.as_mut(), 0, batch);
        let cached_secs = start.elapsed().as_secs_f64();
        cached_samples.push(cached_secs);

        for (slot, (name, path, samples)) in [
            ("file", &raw, &mut file_samples),
            ("sequitur", &seq, &mut seq_samples),
        ]
        .into_iter()
        .enumerate()
        {
            let mut source = FileSource::open(path).expect("open trace");
            let start = std::time::Instant::now();
            let mut pf = System::Domino.build(4);
            let report = run_timing_streamed(&cfg, &mut source, pf.as_mut(), 0, batch as usize)
                .expect("stream trace");
            let secs = start.elapsed().as_secs_f64();
            samples.push(secs);
            peaks[slot] = peaks[slot].max(source.peak_resident_bytes());
            budget = source.budget_bytes();
            assert_eq!(
                format!("{report:?}"),
                format!("{cached:?}"),
                "streamed {name} replay diverged from the cached slice"
            );
            if slot == 0 {
                best_ratio = best_ratio.max(cached_secs / secs);
            }
        }
    }
    std::fs::remove_file(&raw).ok();
    std::fs::remove_file(&seq).ok();

    let slice_bytes = (events.len() * RECORD_BYTES) as u64;
    let mut points = Vec::new();
    for (source, samples, peak, bound) in [
        ("cached", &mut cached_samples, slice_bytes, slice_bytes),
        ("file", &mut file_samples, peaks[0], budget),
        ("sequitur", &mut seq_samples, peaks[1], budget),
    ] {
        let seconds = median(samples);
        eprintln!("  {source} in {seconds:.2}s");
        points.push(StreamingPoint {
            source,
            seconds,
            events_per_sec: stream_events as f64 / seconds,
            peak_resident_bytes: peak,
            budget_bytes: bound,
        });
    }
    eprintln!("  file/cached ratio {best_ratio:.2} (best adjacent pass)");
    (points, best_ratio)
}

fn main() {
    let mut events: Option<usize> = None;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let (mut jobs, mut batch, mut epoch, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            let n: usize = args
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--jobs needs a positive integer");
            jobs = Some(n);
        } else if arg == "--batch" {
            let n: u32 = args
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--batch needs a positive integer");
            batch = Some(n);
        } else if arg == "--epoch" {
            let n: u64 = args
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--epoch needs a positive integer");
            epoch = Some(n);
        } else if arg == "--trace" {
            let n: u64 = args
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--trace needs a positive integer");
            trace = Some(n);
        } else if events.is_none() && arg.parse::<usize>().is_ok() {
            events = arg.parse().ok();
        } else {
            out_dir = Some(arg.into());
        }
    }
    let events = events.unwrap_or(400_000);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let scale = Scale { events, seed: 42 };
    let mut sweep = Sweep::new(scale);
    if let Some(n) = jobs.filter(|&n| n > 0) {
        sweep.jobs = n;
    }
    // `--batch 0` means one event per step, like `--batch 1`.
    if let Some(n) = batch {
        sweep.batch = n.max(1);
    }
    // `--epoch 0` / `--trace 0` switch observation off explicitly.
    if let Some(n) = epoch {
        sweep.epoch = (n > 0).then_some(n);
    }
    if let Some(n) = trace {
        sweep.trace = (n > 0).then_some(n);
    }
    let jobs = sweep.jobs;
    eprintln!(
        "running all figures at {} events per workload on {jobs} worker(s)...",
        scale.events
    );

    println!("{}", table1());
    println!("{}", table2());

    let save = |name: &str, table: &FigureTable| {
        if let Some(dir) = &out_dir {
            let svg = domino_repro::sim::svg::render_bar_chart(table);
            std::fs::write(dir.join(format!("{name}.svg")), svg).expect("write svg");
            std::fs::write(dir.join(format!("{name}.csv")), table.to_csv()).expect("write csv");
        }
    };
    let t0 = std::time::Instant::now();
    let mut timings: Vec<FigureTiming> = Vec::new();
    macro_rules! show {
        ($name:literal, $figure:expr) => {{
            let start = std::time::Instant::now();
            let result = $figure;
            let seconds = start.elapsed().as_secs_f64();
            eprintln!("  {} done in {seconds:.1}s", $name);
            timings.push(FigureTiming {
                name: $name,
                seconds,
                events_per_sec: (scale.events * WORKLOADS) as f64 / seconds,
            });
            result
        }};
    }
    let mut singles: Vec<(&str, FigureTable)> = vec![
        ("fig01", show!("fig01", fig01(&mut sweep))),
        ("fig02", show!("fig02", fig02(&mut sweep))),
        ("fig03", show!("fig03", fig03(&mut sweep))),
        ("fig04", show!("fig04", fig04(&mut sweep))),
    ];
    for (i, t) in show!("fig05", fig05(&mut sweep)).into_iter().enumerate() {
        singles.push(if i == 0 { ("fig05a", t) } else { ("fig05b", t) });
    }
    singles.push(("fig06", show!("fig06", fig06(&mut sweep))));
    singles.push(("fig09", show!("fig09", fig09(&sweep))));
    singles.push(("fig10", show!("fig10", fig10(&sweep))));
    for (i, t) in show!("fig11", fig11(&mut sweep)).into_iter().enumerate() {
        singles.push(if i == 0 { ("fig11a", t) } else { ("fig11b", t) });
    }
    singles.push(("fig12", show!("fig12", fig12(&mut sweep))));
    for (i, t) in show!("fig13", fig13(&mut sweep)).into_iter().enumerate() {
        singles.push(if i == 0 { ("fig13a", t) } else { ("fig13b", t) });
    }
    singles.push(("fig14", show!("fig14", fig14(&mut sweep))));
    singles.push(("fig15", show!("fig15", fig15(&mut sweep))));
    singles.push(("fig16", show!("fig16", fig16(&mut sweep))));
    singles.push((
        "bandwidth",
        show!("bandwidth", bandwidth_utilization(&sweep)),
    ));
    let rival_names = [
        "rivals_coverage",
        "rivals_accuracy",
        "rivals_traffic",
        "rivals_speedup",
    ];
    for (name, t) in rival_names
        .into_iter()
        .zip(show!("rivals", rivals(&mut sweep)))
    {
        singles.push((name, t));
    }
    for (name, table) in &singles {
        println!("{table}");
        save(name, table);
    }
    let total = t0.elapsed().as_secs_f64();
    eprintln!("all figures in {total:.1}s");

    // Scaling curve: the three heaviest figures at jobs 1/2/4/8, for
    // the bench guard's multicore-scaling checks. Each point runs on a
    // fresh sweep, or it would time finished cells. Observed runs skip
    // the curve.
    let mut scaling: Vec<ScalingPoint> = Vec::new();
    if !sweep.observing() {
        eprintln!("scaling curve (jobs 1/2/4/8)...");
        macro_rules! scale_point {
            ($name:literal, $j:expr, $figure:expr) => {{
                let start = std::time::Instant::now();
                let _ = $figure;
                let seconds = start.elapsed().as_secs_f64();
                eprintln!("  {} at jobs {} in {seconds:.1}s", $name, $j);
                scaling.push(ScalingPoint {
                    figure: $name,
                    jobs: $j,
                    seconds,
                    events_per_sec: (scale.events * WORKLOADS) as f64 / seconds,
                });
            }};
        }
        for j in [1usize, 2, 4, 8] {
            let at_jobs = || {
                let mut fresh = sweep.fresh();
                fresh.jobs = j;
                fresh
            };
            scale_point!("fig05", j, fig05(&mut at_jobs()));
            scale_point!("fig14", j, fig14(&mut at_jobs()));
            scale_point!("bandwidth", j, bandwidth_utilization(&at_jobs()));
        }
    }

    // Out-of-core replay throughput: cached slice vs streamed file vs
    // streamed compressed file, one heavy timing cell each.
    eprintln!("streaming throughput (cached / file / sequitur)...");
    let (streaming, stream_ratio) = streaming_bench(&scale, sweep.batch);

    // Per-system replay throughput of the modern-rivals roster.
    eprintln!("rivals throughput (one OLTP timing cell each)...");
    let rival_points = rivals_bench(&scale, sweep.batch);

    let out_base = out_dir
        .as_deref()
        .unwrap_or_else(|| std::path::Path::new("."))
        .to_path_buf();
    let bench_path = out_base.join("BENCH_sweep.json");
    std::fs::write(
        &bench_path,
        bench_json(
            &timings,
            &scaling,
            &streaming,
            &rival_points,
            stream_ratio,
            total,
            events,
            jobs,
            sweep.batch,
        ),
    )
    .expect("write bench");
    eprintln!("wrote {}", bench_path.display());

    let reports = sweep.take_reports();
    if !reports.is_empty() {
        let paths = observe::write_reports(&out_base, &reports).expect("write telemetry");
        eprintln!(
            "wrote {} telemetry files ({} runs) to {}",
            paths.len(),
            reports.len(),
            out_base.display()
        );
    }

    let traces = sweep.take_traces();
    if !traces.is_empty() {
        let paths = observe::write_traces(&out_base, &traces).expect("write traces");
        eprintln!(
            "wrote {} flight-recorder traces to {}",
            paths.len(),
            out_base.display()
        );
    }
}

/// Renders the sweep timings as JSON by hand (the tree is tiny and the
/// build is offline, so no serde).
#[allow(clippy::too_many_arguments)]
fn bench_json(
    timings: &[FigureTiming],
    scaling: &[ScalingPoint],
    streaming: &[StreamingPoint],
    rivals: &[RivalPoint],
    stream_ratio: f64,
    total: f64,
    events: usize,
    jobs: usize,
    batch: u32,
) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"domino-bench-sweep/4\",\n");
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(&format!("  \"batch\": {batch},\n"));
    out.push_str(&format!("  \"events_per_workload\": {events},\n"));
    out.push_str(&format!("  \"total_seconds\": {total:.3},\n"));
    out.push_str("  \"figures\": [\n");
    for (i, t) in timings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"seconds\": {:.3}, \"events_per_sec\": {:.0}}}{}\n",
            t.name,
            t.seconds,
            t.events_per_sec,
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"scaling\": [\n");
    for (i, p) in scaling.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"figure\": \"{}\", \"jobs\": {}, \"seconds\": {:.3}, \
             \"events_per_sec\": {:.0}}}{}\n",
            p.figure,
            p.jobs,
            p.seconds,
            p.events_per_sec,
            if i + 1 < scaling.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"streaming\": [\n");
    for (i, s) in streaming.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"source\": \"{}\", \"seconds\": {:.3}, \
             \"events_per_sec\": {:.0}, \"peak_resident_bytes\": {}, \
             \"budget_bytes\": {}}}{}\n",
            s.source,
            s.seconds,
            s.events_per_sec,
            s.peak_resident_bytes,
            s.budget_bytes,
            if i + 1 < streaming.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"rivals\": [\n");
    for (i, r) in rivals.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"system\": \"{}\", \"seconds\": {:.3}, \"events_per_sec\": {:.0}}}{}\n",
            r.system,
            r.seconds,
            r.events_per_sec,
            if i + 1 < rivals.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"stream_file_vs_cached_ratio\": {stream_ratio:.3}\n"
    ));
    out.push_str("}\n");
    out
}
