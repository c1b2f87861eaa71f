#!/usr/bin/env python3
"""Runs the benchmark several times per workload and prints each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py [--runs N] [--workloads a,b] [--trace 0|1] [--first-seed S]

Each round uses a new seed and runs every workload once, rotating the
workload order from round to round so that no workload always runs first.
For every metric it prints min, first quartile, median, third quartile and
max over the runs, and the quartile distance as a share of the median
(`statistics.quantiles(values, n=4)`). For end-to-end metrics it also shows
the bound from BENCHMARK.json and whether the spread is under a third of
it. Exits non-zero if any run failed or reported incorrect answers.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in workloads}
    ok = True
    for r in range(args.runs):
        seed = args.first_seed + r
        order = workloads[r % len(workloads):] + workloads[: r % len(workloads)]
        for w in order:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            good = p.returncode == 0 and result.get("correct") is True
            ok &= good
            print(f"seed {seed} {w}: exit {p.returncode} correct {result.get('correct')} "
                  f"attempted {result.get('attempted')} failed {result.get('failed')}", flush=True)
            if not good:
                for line in p.stderr.splitlines()[-12:]:
                    print(f"    {line}", flush=True)
            for name, m in result.get("metrics", {}).items():
                values[w].setdefault(name, []).append(m["value"])
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':34} {'min':>12} {'q1':>12} {'median':>12} {'q3':>12} {'max':>12} "
              f"{'spread':>8}  bound")
        for name, vs in sorted(values[w].items()):
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = vs[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"{bound:.2f} {'steady' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:34} {min(vs):12.4f} {q1:12.4f} {med:12.4f} {q3:12.4f} "
                  f"{max(vs):12.4f} {spread:8.4f}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
