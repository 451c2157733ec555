#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload route-grid --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance between
their first and third quartiles as a share of that median (the quartiles of
Python's ``statistics.quantiles(values, n=4)``), next to the metric's bound
from BENCHMARK.json and a third of it, the level a steady benchmark stays
under. It also prints each run's wall time. Seeds are given as a list
(``1,2,3``) or a range (``1-10``).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    decl = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in decl["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = decl["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(decl["run_seconds"]), "--trace", args.trace,
        ]
        start = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-2000:])
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        print(f"seed {seed:>3}: {wall:6.1f} s wall", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{'metric':<34} {'median':>14} {'IQR/med':>8} {'bound':>6} {'bound/3':>8}  values")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        b = f"{bound:6.3f} {bound / 3:8.3f}" if bound is not None else "-"
        flag = "  <-- over bound/3" if bound is not None and name != "setup_s" and spread > bound / 3 else ""
        runs = " ".join(f"{v:.4g}" for v in vals)
        print(f"{name:<34} {med:>14.6g} {spread:>8.4f} {b:>15}  {runs}{flag}")


if __name__ == "__main__":
    main()
