#!/usr/bin/env python3
"""Runs each workload repeatedly and prints the spread of every metric.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b] [--seconds S] [--trace]

Run from the repository root. Each run gets its own seed
(first-seed, first-seed + 1, ...) and the run length of
BENCHMARK.json unless --seconds is given. For every metric it prints
the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the spread (third minus first
quartile, as a share of the median) and, for end-to-end metrics, the
metric's bound and whether the spread is within a third of it. It also
prints each workload's share of failed operations and whether every
run passed its checks. Exits non-zero when a run fails or a check
does not pass.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit code {out.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.first_seed + i, args.seconds, args.trace)
            results.append(r)
            print(f"  {workload} seed {args.first_seed + i}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok = ok and correct and len(shares) == 1
        print(f"{workload}: {args.runs} runs, all correct: {correct}, failed shares: {sorted(shares)}")
        print(f"  {'metric':36} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                steady = spread < bound / 3
                verdict = "ok" if steady else "WIDE"
            print(f"  {name:36} {first['unit']:>6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
