#!/usr/bin/env python3
"""Steadiness of the layer benchmark's end-to-end metrics.

Runs each workload several times, each with another seed, and prints for
every end-to-end metric the median, the quartiles and the spread
(third quartile minus first, as a share of the median) next to the
metric's bound from BENCHMARK.json. Also checks that every run attempted
a whole number of passes with the same share of failed operations.

Run from the repository root:

    python3 layerbench/steady.py                 # every workload, 10 seeds
    python3 layerbench/steady.py --runs 5 --workloads giant-fabric
"""

import argparse
import fractions
import json
import statistics
import subprocess
import sys
import time

CARGO = ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", "layerbench/Cargo.toml", "--"]


def run_once(workload, seed, seconds):
    cmd = CARGO + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    took = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), took


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload, one seed each")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            res, took = run_once(workload, seed, args.seconds)
            if not res["correct"]:
                print(f"{workload} seed {seed}: outputs failed their checks", file=sys.stderr)
            shares.add(fractions.Fraction(res["failed"], res["attempted"]))
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            shown = " ".join(f"{name}={res['metrics'][name]['value']:.6g}" for name in bounds)
            print(f"  {workload} seed {seed}: {took:.1f} s, attempted {res['attempted']}, failed {res['failed']}, "
                  f"{shown}", file=sys.stderr)
        print(f"{workload}: {args.runs} runs of {args.seconds} s, failed share {' '.join(map(str, sorted(shares)))}")
        print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} {bounds[name]:>6}")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
