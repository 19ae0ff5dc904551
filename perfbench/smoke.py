#!/usr/bin/env python3
"""The benchmark's own smoke test: a tiny run of every workload.

    python3 perfbench/smoke.py

For each workload it makes two untraced and two traced runs with one seed
and checks that
  - every run passes its correctness gate;
  - every metric BENCHMARK.json names is reported, with its unit;
  - the exact counts repeat bit for bit across the two runs: auditor_loss_mean,
    cache.hit_ratio, solver.*_per_solve and wal.bytes_per_op;
  - the workload does what it claims: every timed policy a cache hit on
    cache-bound, a warm re-solve on solve-bound.
It also checks that run.py fails without a result when the checkout holds
only BENCHMARK.json and perfbench/. Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
EXACT = ("auditor_loss_mean", "cache.hit_ratio", "wal.bytes_per_op",
         "solver.evaluations_per_solve",
         "solver.distinct_evaluations_per_solve")


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def run(workload, trace, cwd=ROOT):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    return result


def metrics_of(result, expected, label):
    check(result.returncode == 0,
          f"{label} exited {result.returncode}: {result.stderr[-2000:]}")
    report = json.loads(result.stdout.strip().splitlines()[-1])
    check(set(report) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(report)}")
    check(report["correct"] is True, f"{label}: not correct")
    check(report["attempted"] >= 1, f"{label}: nothing attempted")
    metrics = report["metrics"]
    check(set(metrics) == {m["name"] for m in expected},
          f"{label}: metrics differ from BENCHMARK.json")
    for metric in expected:
        got = metrics[metric["name"]]
        check(got["unit"] == metric["unit"],
              f"{label}: {metric['name']} unit {got['unit']}")
        check(isinstance(got["value"], (int, float)),
              f"{label}: {metric['name']} is not a number")
    return {name: m["value"] for name, m in metrics.items()}


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in benchmark["workloads"]:
        workload = entry["name"]
        e2e = [metrics_of(run(workload, 0), benchmark["end_to_end"],
                          f"{workload} untraced #{i}") for i in (1, 2)]
        layers = [metrics_of(run(workload, 1), benchmark["per_layer"],
                             f"{workload} traced #{i}") for i in (1, 2)]
        for name in EXACT:
            pair = [m[name] for m in (e2e if name in e2e[0] else layers)]
            check(pair[0] == pair[1],
                  f"{workload}: {name} differs across runs: {pair}")
        traced = layers[0]
        if workload == "solve-bound":
            check(traced["cache.hit_ratio"] == 0.0,
                  f"{workload}: cache hits in the timed phases")
            check(traced["service.cold_solves"] == 0 and
                  traced["service.warm_solves"] > 0,
                  f"{workload}: timed policies are not all warm solves")
        else:
            check(traced["cache.hit_ratio"] == 1.0,
                  f"{workload}: cache.hit_ratio {traced['cache.hit_ratio']}")
        print(f"ok: {workload}")

    # Without the repository's sources the command must fail, quickly and
    # without printing a result.
    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = run(benchmark["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(result.returncode != 0, "a bare checkout exited 0")
    check("correct" not in result.stdout, "a bare checkout printed a result")
    print("ok: a bare checkout fails without a result")


if __name__ == "__main__":
    main()
