#!/usr/bin/env python3
"""Builds and runs the DCDO benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload steady_calls --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the runtime from src/) into
.bench_build/perfbench on first use, runs one workload, prints every metric
with its unit and sample count beside the calibrated figure it corresponds
to, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metrics are BENCHMARK.json's end_to_end list with --trace 0 and its
per_layer list with --trace 1. Exits non-zero when the environment overrides
the runtime's configuration, the build fails, the program fails, or an
output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "dcdo_bench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

WORKLOADS = ("steady_calls", "evolve_under_calls", "migrate_churn")

# The end-to-end metrics, in print order. BENCHMARK.json lists the ones
# that apply to every workload; the others print wherever they apply.
END_TO_END = (
    "setup_s", "ops_per_s", "peak_rss_mb", "call_p50_ms", "call_p99_ms",
    "call_miss_ratio", "evolve_p50_ms", "evolve_p99_ms", "failed_ratio",
)

# Simulated-time metrics beside the committed calibrated figure
# (BENCH_dcdo.json entry, and how to read it) they correspond to.
PAPER_REFERENCES = {
    ("steady_calls", "call_p50_ms"): (
        "E2 remote call, DCDO 500 fns/50 comps",
        "SimTime_RemoteCallDcdo/500/50/iterations:64/manual_time",
        lambda e: f"{e['real_ns'] / 1e6:.4f} ms"),
    ("migrate_churn", "call_p99_ms"): (
        "E5/E14 stale-binding discovery",
        "SimTime_StaleBindingDiscovery/iterations:3/manual_time",
        lambda e: f"{e['real_ns'] / 1e6:.1f} ms"),
    ("evolve_under_calls", "evolve_p50_ms"): (
        "E6 evolution, +1 cached component",
        "SimTime_EvolveCachedComponents/1/iterations:3/manual_time",
        lambda e: f"{e['real_ns'] / 1e6:.4f} ms"),
    ("evolve_under_calls", "call_miss_ratio"): (
        "E9 calls failed or over 1 s across a DCDO evolution",
        "SimTime_AvailabilityDcdoEvolution/iterations:1/manual_time",
        lambda e: f"{e['failed'] + e['slow_gt_1s']} of 60 calls"),
}


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def guard_environment():
    """The benchmark measures the default configuration only."""
    overrides = sorted(name for name in os.environ if name.startswith("DCDO_"))
    if overrides:
        fail("refusing to run with runtime overrides set: "
             + ", ".join(overrides)
             + " (the benchmark measures the default CostModel on the "
             "single-threaded engine)", 3)


def build():
    if not (ROOT / "src" / "runtime" / "testbed.h").is_file():
        fail(f"no DCDO sources under {ROOT / 'src'}; run from a checkout of "
             "the repository", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}", 4)
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}", 4)


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the runtime sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def paper_reference(workload, name, bench):
    ref = PAPER_REFERENCES.get((workload, name))
    if ref is None:
        return ""
    label, key, show = ref
    entry = bench.get(key)
    return f"  [{label}: {show(entry) if entry else 'not recorded'}]"


def main():
    args = parse_args()
    guard_environment()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}", 2)
    build()

    trace_out = BUILD_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", commit(),
               "--source-digest", source_digest()]
    if args.trace:
        command += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 5)
    lines = done.stdout.splitlines()
    sys.stderr.write(done.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("\n".join(lines))
        fail(f"dcdo_bench exited {done.returncode} without a result", 5)
    print("\n".join(lines[:-1]))
    metrics = result["metrics"]

    try:
        bench = json.loads((ROOT / "BENCH_dcdo.json").read_text())["benchmarks"]
    except (OSError, ValueError, KeyError):
        bench = {}
    print(f"\nend-to-end metrics ({args.workload}, seed {args.seed}; "
          "host times from the fastest repetitions):")
    for name in END_TO_END:
        m = metrics[name]
        if m["samples"] == 0:
            print(f"  {name:34s} n/a (no samples on this workload)")
            continue
        print(f"  {name:34s} {m['value']:<14.6g} {m['unit']:6s} "
              f"n={m['samples']}{paper_reference(args.workload, name, bench)}")
    if args.trace:
        print("\nper-layer metrics (traced repetitions):")
        for item in spec["per_layer"]:
            m = metrics.get(item["name"])
            if m is not None:
                print(f"  {item['name']:34s} {m['value']:<14.6g} "
                      f"{m['unit']:6s} n={m['samples']}")
        print(f"spans and counters: {trace_out}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [item["name"] for item in wanted
               if metrics.get(item["name"], {}).get("unit") != item["unit"]]
    if missing:
        fail("dcdo_bench did not report, in BENCHMARK.json's unit: "
             + ", ".join(missing), 5)
    if not result["correct"]:
        for error in result["errors"]:
            print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {item["name"]: {"value": metrics[item["name"]]["value"],
                                   "unit": item["unit"]}
                    for item in wanted},
    }))
    sys.exit(0 if result["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
