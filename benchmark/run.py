#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage, from the repository root:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `benchmark/` package in release mode (into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs one workload, checks its result digest
against `benchmark/expected.json` when the seed is recorded there, and
prints two JSON lines: the run context, then the result
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end metrics of `BENCHMARK.json`, with `--trace 1`
its per-layer metrics. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
# A run measures for --seconds, plus set-up samples and verification.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# Allocator settings per workload, passed as GLIBC_TUNABLES. Left
# adaptive, glibc decides pass by pass whether to hand freed memory back,
# so pass times and peak memory depended on its choices rather than on
# the simulator:
# - the service keeps freed memory (a high fixed mmap threshold, no
#   trimming, one arena shared by each pass's new threads): otherwise some
#   passes re-faulted their 256 MB of session EITs and ran 2-3x longer;
# - the streamed replay maps every buffer of 1 MiB or more afresh: its
#   decoder and simulation threads otherwise fragment one shared heap
#   differently on every run, and peak RSS varied by 20%.
RETAIN_FREED = ":".join([
    "glibc.malloc.mmap_threshold=268435456",
    "glibc.malloc.trim_threshold=4294967296",
    "glibc.malloc.arena_max=1",
])
MALLOC_TUNABLES = {
    "timing-sweep": RETAIN_FREED,
    "stream-coverage": "glibc.malloc.mmap_threshold=1048576",
    "service-tenants": RETAIN_FREED,
}


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "domino-benchmark")


def revision():
    """The git revision when there is one, and a digest of the sources."""
    rev = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", os.path.relpath(BENCH_DIR, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return rev, h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = os.path.abspath(env["CARGO_TARGET_DIR"])
    # The simulator reads process-wide knobs from DOMINO_* variables; a
    # benchmark run always uses the defaults, so results stay comparable.
    ignored = sorted(k for k in env if k.startswith("DOMINO_"))
    for k in ignored:
        del env[k]
    exe = build(env)
    env["GLIBC_TUNABLES"] = MALLOC_TUNABLES[args.workload]

    work_dir = os.path.join(ROOT, ".bench_work")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", work_dir,
    ]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run: {e}")
    finally:
        if os.path.isdir(work_dir) and not os.listdir(work_dir):
            os.rmdir(work_dir)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"run exited with {done.returncode}")
    try:
        out = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        fail(f"unreadable result: {e}")

    missing = [m["name"] for m in wanted if m["name"] not in out["metrics"]]
    if missing:
        fail(f"metrics missing from the result: {missing}")
    metrics = {m["name"]: out["metrics"][m["name"]] for m in wanted}
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} is in {metrics[m['name']]['unit']}, BENCHMARK.json says {m['unit']}")

    attempted, failed = out["attempted"], out["failed"]
    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        expected = json.load(f)["digests"].get(args.workload, {}).get(str(args.seed))
    context = dict(out["context"])
    context["digest"] = out["digest"]
    context["expected_digest"] = expected or "not recorded for this seed"
    if expected is not None:
        attempted += 1
        failed += int(expected != out["digest"])
    context["git_rev"], context["source_digest"] = revision()
    context["ignored_env"] = ignored
    context["glibc_tunables"] = env["GLIBC_TUNABLES"]
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
