#!/usr/bin/env python3
"""The repository's benchmark: one run of one workload against a real
audit_server process.

    python3 perfbench/run.py --workload cache-bound --seed 1 --seconds 12 --trace 0

Builds the server and the load driver from this checkout's sources (CMake,
Release, into .bench_build/perfbench), runs perfbench_driver, checks that
every op was answered, that cycle order held and that every served policy
matches the in-process replay, and prints a report. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits non-zero when a check fails, and
without a result when the checkout lacks the sources.

perfbench/README.md describes the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

# Shapes of the workloads. Rates are ops/s: `open_rate` is the
# open-loop arrival rate; `closed_rate` only sizes the closed-loop phase
# (cycles per tenant) to about its share of --seconds on the reference
# host. Both phases then run a fixed number of cycles per tenant, so the
# set of served policies depends on the seed alone.
WORKLOADS = {
    "cache-bound": {
        "tenants": 256,
        "solves_per_ingest": 10,
        "drift": 0.0,
        "open_rate": 5000,
        "closed_rate": 120000,
    },
    "solve-bound": {
        "tenants": 128,
        "solves_per_ingest": 1,
        "drift": 0.05,
        "open_rate": 300,
        "closed_rate": 1600,
    },
}
OPEN_SHARE = 0.5  # of --seconds; the closed loop gets the rest
SETUP_REPS = 3

TINY = {"tenants": 8, "cycles": 3, "max_open_rate": 2000, "setup_reps": 1}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing")
    return json.loads(path.read_text())


def slo_ms(benchmark, workload):
    """The workload's open-loop latency limit, fixed in its `why`."""
    for entry in benchmark["workloads"]:
        if entry["name"] == workload:
            match = re.search(r"SLO (\d+(?:\.\d+)?) ms", entry["why"])
            if match:
                return float(match.group(1))
            fail(f"BENCHMARK.json gives no 'SLO <n> ms' for {workload}")
    fail(f"BENCHMARK.json has no workload {workload}")


def build():
    """Configures once, then rebuilds incrementally; output goes to stderr."""
    for needed in ("src/CMakeLists.txt", "tools/audit_server.cc",
                   "CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            fail(f"no {needed} in {ROOT}: run from a checkout of the "
                 "repository")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
         "--target", "perfbench_driver", "audit_server"],
        check=True, stdout=sys.stderr, env=env)
    server = BUILD_DIR / "audit" / "tools" / "audit_server"
    driver = BUILD_DIR / "perfbench_driver"
    if not server.is_file() or not driver.is_file():
        fail("the build produced no audit_server or perfbench_driver")
    return driver, server


def host_block(build_info):
    cpu = "?"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists() and shutil.which("git"):
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            commit = result.stdout.strip()
    digest = hashlib.sha256()
    for base in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "build_type": build_info["type"],
        "compiler": build_info["compiler"],
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def driver_args(args, benchmark, server):
    shape = WORKLOADS[args.workload]
    per_cycle = 1 + shape["solves_per_ingest"]
    tenants = shape["tenants"]
    open_rate = shape["open_rate"]
    setup_reps = SETUP_REPS
    if args.size == "tiny":
        tenants = TINY["tenants"]
        open_cycles = closed_cycles = TINY["cycles"]
        open_rate = min(open_rate, TINY["max_open_rate"])
        setup_reps = TINY["setup_reps"]
    else:
        def cycles(rate, seconds):
            return max(1, round(rate * seconds / (tenants * per_cycle)))
        open_cycles = cycles(open_rate, args.seconds * OPEN_SHARE)
        closed_cycles = cycles(shape["closed_rate"],
                               args.seconds * (1 - OPEN_SHARE))
    work_dir = BUILD_DIR / "work"
    argv = [
        f"--server={server}",
        f"--work_dir={work_dir}",
        f"--seed={args.seed}",
        f"--tenants={tenants}",
        f"--solves_per_ingest={shape['solves_per_ingest']}",
        f"--drift={shape['drift']}",
        f"--open_cycles={open_cycles}",
        f"--closed_cycles={closed_cycles}",
        f"--open_rate={open_rate}",
        f"--slo_ms={slo_ms(benchmark, args.workload)}",
        f"--setup_reps={setup_reps}",
        f"--trace={args.trace}",
    ]
    return argv


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: 8 tenants, 3 cycles a phase (smoke test)")
    args = parser.parse_args()
    if args.seed < 1:
        fail("--seed must be at least 1")

    benchmark = load_benchmark()
    driver, server = build()
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    argv = [str(driver)] + driver_args(args, benchmark, server)
    try:
        run = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                             timeout=170)
    except subprocess.TimeoutExpired:
        fail("the driver did not finish within 170 s", code=1)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"the driver failed (exit {run.returncode})", code=1)
    report = json.loads(lines[-1])

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in report["metrics"]:
            fail(f"the driver reported no {name}", code=1)
        metrics[name] = {"value": report["metrics"][name],
                         "unit": metric["unit"]}
    extra = set(report["metrics"]) - set(metrics)
    if extra:
        fail(f"the driver reported metrics BENCHMARK.json lacks: {extra}",
             code=1)

    host = host_block(report["build"])
    if host["build_type"] != "Release":
        print(f"perfbench: WARNING: {host['build_type']} build, not Release; "
              "timings are not comparable", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    for key, value in host.items():
        print(f"  host.{key}: {value}")
    for name, phase in report["phases"].items():
        print(f"  phase.{name}: " + ", ".join(
            f"{k}={v:.6g}" for k, v in phase.items()))
    for key, value in report["checks"].items():
        print(f"  check.{key}: {value}")
    for name, metric in metrics.items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()
