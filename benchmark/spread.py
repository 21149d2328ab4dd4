#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, over several seeds.

Usage, from the repository root:

    python3 benchmark/spread.py [--seeds 1,2,...] [--workloads a,b] [--seconds s]

Runs `benchmark/run.py` once per (workload, seed) with tracing off and
prints, per workload and metric, the median and the spread: the distance
between the first and third quartiles (`statistics.quantiles(n=4)`) as a
share of the median, next to the metric's bound in `BENCHMARK.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = False
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds.split(","):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", seed, "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
            lines = done.stdout.strip().splitlines()
            context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
            failed |= not result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            walls = sorted(context["untraced_pass_wall_s"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  "pass s min/median/max", [round(walls[0], 3), round(statistics.median(walls), 3),
                                            round(walls[-1], 3)], flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:16s} {name:14s} median {med:.6g}  spread {(q3 - q1) / med:.4f}"
                  f"  bound {bounds[name]}", flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
