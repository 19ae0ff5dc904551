#!/usr/bin/env python3
"""Steadiness runner: runs workloads K times, each with another seed, and
prints each end-to-end metric's median and quartiles.

    python3 perfbench/steady.py --workload solve-bound --runs 10
    python3 perfbench/steady.py --runs 10        # every workload

Run k uses seed k and BENCHMARK.json's run_seconds. The spread of a metric
is (Q3 - Q1) / median over the K values, with the quartiles of Python's
statistics.quantiles(values, n=4). A metric whose spread exceeds its bound
in BENCHMARK.json is flagged EXCEEDS; one above a third of its bound is
flagged `wide`. Exits 1 when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    start = time.monotonic()
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    wall = time.monotonic() - start
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return None, wall
    return json.loads(lines[-1]), wall


def summarize(workload, runs, metrics):
    ok = True
    print(f"\n{workload}: {len(runs)} runs")
    print(f"  {'metric':<24}{'median':>12}{'Q1':>12}{'Q3':>12}{'spread':>9}"
          f"{'bound':>7}")
    for metric in metrics:
        name = metric["name"]
        bound = metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median) if median else float("inf")
        flag = ""
        if spread > bound:
            flag = "EXCEEDS"
            ok = False
        elif spread > bound / 3:
            flag = "wide"
        print(f"  {name:<24}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}"
              f"{spread:>9.4f}{bound:>7} {flag}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]

    all_ok = True
    for workload in workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            result, wall = run_once(workload, seed, benchmark["run_seconds"])
            status = "ok" if result and result["correct"] else "FAILED"
            print(f"{workload} seed {seed}: {status} in {wall:.1f} s",
                  flush=True)
            if result is None or not result["correct"]:
                all_ok = False
                continue
            runs.append(result)
        if len(runs) >= 2:
            all_ok = summarize(workload, runs, benchmark["end_to_end"]) \
                and all_ok
        else:
            all_ok = False
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
