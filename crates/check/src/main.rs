//! `domino-check`: the differential simulation checker CLI.
//!
//! ```text
//! domino-check [--seed N] [--cases N] [--events N] [--out DIR] [--systems A,B]
//! domino-check --list-systems
//! domino-check --smoke [--out DIR]
//! domino-check --batch-parity [--seed N] [--events N] [--out DIR] [--systems A,B]
//! domino-check --stream-parity [--seed N] [--events N] [--out DIR] [--systems A,B]
//! domino-check --replay <file.events>
//! domino-check --force-fail [--out DIR]
//! domino-check --self-test [--out DIR]
//! ```
//!
//! The default mode is a fuzzing campaign: for each case and each
//! [`Generator`] family it derives a deterministic trace, runs the
//! reference-model differentials, then drives every selected system
//! through the cross-engine, multicore-equivalence, and invariant-audit
//! oracles. On the first violation the trace is shrunk to a minimal
//! reproducer and written as a `DMNOCHK1` `.events` file; the printed
//! `--replay` command reruns it exactly.
//!
//! `--smoke` is the fixed-seed, fixed-budget CI entry point wired into
//! `tools/check.sh`. `--force-fail` exercises the shrinking and
//! reproducer plumbing against a synthetic predicate without touching
//! production code. `--self-test` (mutation-hooked builds only) proves
//! every injected bug is caught — see `TESTING.md`.
//!
//! Note: the issue sketched this binary at `crates/sim/src/bin/`, but
//! it must link `domino_check`, which depends on `domino-sim` — a bin
//! there would be a dependency cycle, so it lives in `crates/check`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use domino_check::oracle::{
    check_batched_parity, check_reference_models, check_stream_parity, check_system_trace,
    Violation, CHECKED_BATCHES,
};
use domino_check::repro::Reproducer;
use domino_check::selftest::run_self_test;
use domino_check::shrink::{shrink, shrink_aligned};
use domino_check::Generator;
use domino_sim::roster::System;
use domino_trace::event::AccessEvent;

/// Fixed seed for `--smoke` and the default campaign start.
const DEFAULT_SEED: u64 = 0xD0C5;
/// Oracle name used by `--force-fail` reproducers.
const FORCED_ORACLE: &str = "forced_duplicate_line";
/// Predicate-run budget for shrinking.
const SHRINK_BUDGET: usize = 2000;

struct Options {
    seed: u64,
    cases: u64,
    events: usize,
    out: PathBuf,
    systems: Vec<System>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: domino-check [--seed N] [--cases N] [--events N] \
         [--out DIR] [--systems A,B,..]\n\
         \x20      domino-check --list-systems\n\
         \x20      domino-check --smoke [--out DIR]\n\
         \x20      domino-check --batch-parity [--seed N] [--events N] \
         [--out DIR] [--systems A,B,..]\n\
         \x20      domino-check --stream-parity [--seed N] [--events N] \
         [--out DIR] [--systems A,B,..]\n\
         \x20      domino-check --replay <file.events>\n\
         \x20      domino-check --force-fail [--out DIR]\n\
         \x20      domino-check --self-test [--out DIR]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        seed: DEFAULT_SEED,
        cases: 4,
        events: 2000,
        out: PathBuf::from("check-failures"),
        systems: System::all(),
    };
    let mut smoke = false;
    let mut batch_parity = false;
    let mut stream_parity = false;
    let mut force_fail = false;
    let mut self_test = false;
    let mut replay: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list-systems" => {
                for sys in System::all() {
                    println!("{}", sys.label());
                }
                return ExitCode::SUCCESS;
            }
            "--smoke" => smoke = true,
            "--batch-parity" => batch_parity = true,
            "--stream-parity" => stream_parity = true,
            "--force-fail" => force_fail = true,
            "--self-test" => self_test = true,
            "--replay" => match it.next() {
                Some(f) => replay = Some(PathBuf::from(f)),
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| parse_u64(v)) {
                Some(v) => opts.seed = v,
                None => return usage(),
            },
            "--cases" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.cases = v,
                None => return usage(),
            },
            "--events" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.events = v,
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(d) => opts.out = PathBuf::from(d),
                None => return usage(),
            },
            "--systems" => match it.next().map(|v| parse_systems(v)) {
                Some(Ok(s)) => opts.systems = s,
                Some(Err(bad)) => {
                    eprintln!(
                        "error: unknown system label {bad:?}\nvalid systems: {}",
                        roster_labels()
                    );
                    return ExitCode::FAILURE;
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if smoke {
        // Fixed budget: one case, a reduced but adversarial system set.
        opts.cases = 1;
        opts.events = 800;
        opts.systems = vec![
            System::Baseline,
            System::NextLine,
            System::Stride,
            System::Stms,
            System::Digram,
            System::Domino,
            System::VldpPlusDomino,
            System::Pangloss,
            System::Triangel,
        ];
    }
    if self_test {
        return match run_self_test(&opts.out.to_string_lossy()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(file) = replay {
        return run_replay(&file);
    }
    if force_fail {
        return run_force_fail(&opts);
    }
    if batch_parity {
        return run_batch_parity(&opts);
    }
    if stream_parity {
        return run_stream_parity(&opts);
    }
    run_campaign(&opts)
}

/// Accepts decimal or `0x`-prefixed seeds.
fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// Comma-joined roster labels for error messages (`--list-systems`
/// prints them one per line for scripting).
fn roster_labels() -> String {
    System::all()
        .iter()
        .map(System::label)
        .collect::<Vec<_>>()
        .join(", ")
}

fn parse_systems(csv: &str) -> Result<Vec<System>, String> {
    csv.split(',')
        .map(|label| System::from_label(label.trim()).ok_or_else(|| label.trim().to_string()))
        .collect()
}

/// Runs every oracle over `trace`, reporting the failing system's label
/// (reference-model failures are system-independent and report the
/// first selected system).
fn check_all(systems: &[System], trace: &[AccessEvent]) -> Result<(), (String, Violation)> {
    let first = systems.first().map(System::label).unwrap_or_default();
    check_reference_models(trace).map_err(|v| (first, v))?;
    for sys in systems {
        check_system_trace(*sys, trace).map_err(|v| (sys.label(), v))?;
    }
    Ok(())
}

fn run_campaign(opts: &Options) -> ExitCode {
    let total = opts.cases * Generator::all().len() as u64;
    let mut done = 0u64;
    for case in 0..opts.cases {
        let seed = opts.seed.wrapping_add(case);
        for g in Generator::all() {
            let trace = g.generate(seed, opts.events);
            if let Err((system, violation)) = check_all(&opts.systems, &trace) {
                eprintln!("FAIL {} seed {seed:#x} system {system}", g.name());
                eprintln!("  {violation}");
                let oracle = violation.oracle;
                let fails = |t: &[AccessEvent]| match check_all(&opts.systems, t) {
                    Err((_, v)) => v.oracle == oracle,
                    Ok(()) => false,
                };
                return fail_and_shrink(opts, g, seed, &system, &violation, &trace, fails);
            }
            done += 1;
            println!(
                "ok [{done}/{total}] {} seed {seed:#x} ({} events, {} systems)",
                g.name(),
                trace.len(),
                opts.systems.len()
            );
        }
    }
    println!(
        "campaign clean: {done} traces x {} systems, every oracle quiet",
        opts.systems.len()
    );
    ExitCode::SUCCESS
}

/// `--batch-parity`: only the batch-parity oracle, run for every
/// generator x system at each checked batch size. The fast CI stage
/// wired into `tools/check.sh`.
fn run_batch_parity(opts: &Options) -> ExitCode {
    let mut done = 0u64;
    for g in Generator::all() {
        let trace = g.generate(opts.seed, opts.events);
        for sys in &opts.systems {
            for batch in CHECKED_BATCHES {
                if let Err(violation) = check_batched_parity(*sys, &trace, batch) {
                    let system = sys.label();
                    eprintln!(
                        "FAIL {} seed {:#x} system {system} batch {batch}",
                        g.name(),
                        opts.seed
                    );
                    eprintln!("  {violation}");
                    let fails = |t: &[AccessEvent]| check_batched_parity(*sys, t, batch).is_err();
                    return fail_and_shrink(opts, g, opts.seed, &system, &violation, &trace, fails);
                }
            }
            done += 1;
        }
        println!(
            "ok {} ({} events, {} systems x {:?} batches)",
            g.name(),
            trace.len(),
            opts.systems.len(),
            CHECKED_BATCHES
        );
    }
    println!("batch parity clean: {done} system-traces, byte-identical at every batch size");
    ExitCode::SUCCESS
}

/// `--stream-parity`: only the streamed-vs-cached oracle, run for every
/// generator x selected system. Every roster system replays `DMNOTRC1`
/// files (raw and Sequitur-compressed) through both engines and must be
/// byte-identical to the cached-slice runs. The ingest CI stage wired
/// into `tools/check.sh`.
fn run_stream_parity(opts: &Options) -> ExitCode {
    let mut done = 0u64;
    for g in Generator::all() {
        let trace = g.generate(opts.seed, opts.events);
        for sys in &opts.systems {
            if let Err(violation) = check_stream_parity(*sys, &trace) {
                let system = sys.label();
                eprintln!("FAIL {} seed {:#x} system {system}", g.name(), opts.seed);
                eprintln!("  {violation}");
                let fails = |t: &[AccessEvent]| check_stream_parity(*sys, t).is_err();
                return fail_and_shrink(opts, g, opts.seed, &system, &violation, &trace, fails);
            }
            done += 1;
        }
        println!(
            "ok {} ({} events, {} systems x {{raw, sequitur}} x {:?} batches)",
            g.name(),
            trace.len(),
            opts.systems.len(),
            CHECKED_BATCHES
        );
    }
    println!("stream parity clean: {done} system-traces, file-backed and cached byte-identical");
    ExitCode::SUCCESS
}

/// Shrinks the failing trace against "the same oracle still fires" and
/// writes the `DMNOCHK1` reproducer. Batch-sensitive violations shrink
/// with cuts aligned to the failing batch size, so every surviving
/// event keeps its position within its chunk.
fn fail_and_shrink(
    opts: &Options,
    g: Generator,
    seed: u64,
    system: &str,
    violation: &Violation,
    trace: &[AccessEvent],
    fails: impl FnMut(&[AccessEvent]) -> bool,
) -> ExitCode {
    let align = violation.batch.unwrap_or(1) as usize;
    eprintln!("shrinking {} events (alignment {align}) ...", trace.len());
    let small = shrink_aligned(trace, fails, SHRINK_BUDGET, align);
    eprintln!("shrunk to {} events", small.len());
    let repro = Reproducer {
        system: system.to_string(),
        oracle: violation.oracle.to_string(),
        generator: g.name().to_string(),
        seed,
        batch: violation.batch,
        events: small,
    };
    match write_repro(&opts.out, &repro) {
        Ok(path) => {
            eprintln!("reproducer: {}", path.display());
            eprintln!("replay with: domino-check --replay {}", path.display());
        }
        Err(e) => eprintln!("could not write reproducer: {e}"),
    }
    ExitCode::FAILURE
}

fn write_repro(dir: &Path, repro: &Reproducer) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let name = format!(
        "{}_{}_{:#x}.events",
        repro.oracle, repro.generator, repro.seed
    );
    let path = dir.join(name);
    std::fs::write(&path, repro.to_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// `--replay`: decode a reproducer and rerun its checks exactly.
/// Exits nonzero iff the violation still reproduces.
fn run_replay(file: &Path) -> ExitCode {
    let bytes = match std::fs::read(file) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: read {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    };
    let repro = match Reproducer::from_bytes(&bytes) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replaying {}: system {}, oracle {}, generator {}, seed {:#x}, {} events",
        file.display(),
        repro.system,
        repro.oracle,
        repro.generator,
        repro.seed,
        repro.events.len()
    );
    if repro.oracle == FORCED_ORACLE {
        // Synthetic --force-fail predicate, not a production oracle.
        return if has_duplicate_line(&repro.events) {
            eprintln!("reproduced: [{FORCED_ORACLE}] a line appears twice");
            ExitCode::FAILURE
        } else {
            println!("did not reproduce: no duplicated line");
            ExitCode::SUCCESS
        };
    }
    let Some(sys) = System::from_label(&repro.system) else {
        eprintln!(
            "error: unknown system label {:?}\nvalid systems: {}",
            repro.system,
            roster_labels()
        );
        return ExitCode::FAILURE;
    };
    // A recorded batch pins the chunking that manifested the failure:
    // rerun the parity differential at exactly that size first, so the
    // replay reproduces under the same batch geometry it was caught in.
    if let Some(batch) = repro.batch {
        match check_batched_parity(sys, &repro.events, batch) {
            Err(v) => {
                eprintln!("reproduced: {v}");
                return ExitCode::FAILURE;
            }
            Ok(()) => {
                println!("batch-{batch} parity quiet; rerunning the full oracle stack");
            }
        }
    }
    match check_reference_models(&repro.events)
        .and_then(|()| check_system_trace(sys, &repro.events))
    {
        Err(v) => {
            eprintln!("reproduced: {v}");
            ExitCode::FAILURE
        }
        Ok(()) => {
            println!("did not reproduce: every oracle quiet (bug fixed?)");
            ExitCode::SUCCESS
        }
    }
}

fn has_duplicate_line(trace: &[AccessEvent]) -> bool {
    trace
        .iter()
        .enumerate()
        .any(|(i, a)| trace[..i].iter().any(|b| b.line() == a.line()))
}

/// `--force-fail`: prove the shrink + reproducer + replay plumbing on a
/// synthetic predicate, independent of any injected mutation.
fn run_force_fail(opts: &Options) -> ExitCode {
    let trace = Generator::Irregular.generate(opts.seed, opts.events.max(64));
    if !has_duplicate_line(&trace) {
        eprintln!("error: forced predicate never fired (trace has no duplicates)");
        return ExitCode::FAILURE;
    }
    let small = shrink(&trace, has_duplicate_line, SHRINK_BUDGET);
    println!(
        "forced failure shrunk from {} to {} events",
        trace.len(),
        small.len()
    );
    if small.len() > 32 {
        eprintln!("error: shrunk reproducer has {} events (> 32)", small.len());
        return ExitCode::FAILURE;
    }
    let repro = Reproducer {
        system: System::Baseline.label(),
        oracle: FORCED_ORACLE.to_string(),
        generator: Generator::Irregular.name().to_string(),
        seed: opts.seed,
        batch: None,
        events: small,
    };
    let path = match write_repro(&opts.out, &repro) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The written file must replay deterministically: decode it and
    // check the predicate still fires on exactly the same events.
    let decoded = match std::fs::read(&path)
        .map_err(|e| e.to_string())
        .and_then(|b| Reproducer::from_bytes(&b))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: reread {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if decoded != repro {
        eprintln!("error: reproducer did not round-trip");
        return ExitCode::FAILURE;
    }
    if !has_duplicate_line(&decoded.events) {
        eprintln!("error: decoded reproducer no longer fails the predicate");
        return ExitCode::FAILURE;
    }
    println!(
        "reproducer {} round-trips and replays ({} events)",
        path.display(),
        decoded.events.len()
    );
    ExitCode::SUCCESS
}
