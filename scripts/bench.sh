#!/usr/bin/env sh
# Benchmark driver: builds the default preset (into build/) and runs every
# bench binary, merging results into the regression-tracking JSON file. The
# benches install no checker, so the numbers measure the runtime itself.
#
# Usage:
#   scripts/bench.sh                 # full run, updates BENCH_dcdo.json
#   scripts/bench.sh --smoke         # quick CI pass (tiny min_time, no JSON
#                                    # update unless DCDO_BENCH_JSON is set)
#   scripts/bench.sh [--smoke] REGEX # only benches whose name matches REGEX
#   scripts/bench.sh --compare OLD.json NEW.json
#                                    # flag Wall_* regressions > 20%, any
#                                    # SimTime_* drift between two results
#                                    # files and any SimTime_* entry only one
#                                    # file has; exits 1 if anything in OLD
#                                    # drifted or is missing from NEW
#
# Environment:
#   DCDO_BENCH_JSON    output file (default: BENCH_dcdo.json at the repo root
#                      for full runs; unset for --smoke so CI runs do not
#                      produce machine-dependent diffs)
set -u

cd "$(dirname "$0")/.." || exit 1

if [ "${1:-}" = "--compare" ]; then
  OLD_JSON=${2:-}
  NEW_JSON=${3:-}
  if [ -z "$OLD_JSON" ] || [ -z "$NEW_JSON" ]; then
    echo "usage: $0 --compare OLD.json NEW.json" >&2
    exit 2
  fi
  exec python3 - "$OLD_JSON" "$NEW_JSON" <<'PYEOF'
import json
import os
import sys

# Wall_* numbers are host time: noisy, so only a > 20% slowdown is flagged
# (exit 1). SimTime_* numbers are simulated time: deterministic by design, so
# ANY drift is flagged — an unintended change to the cost model or event
# ordering.
WALL_REGRESSION_RATIO = 1.20
# DCDO_BENCH_WALL_REPORT_ONLY=1 keeps the hard gate on SimTime_* drift but
# demotes Wall_* regressions to a printed report — what CI wants on shared
# runners, where simulated time is deterministic but host time is noise.
WALL_REPORT_ONLY = os.environ.get("DCDO_BENCH_WALL_REPORT_ONLY") == "1"

old_path, new_path = sys.argv[1], sys.argv[2]
try:
    with open(old_path) as f:
        old = json.load(f).get("benchmarks", {})
    with open(new_path) as f:
        new = json.load(f).get("benchmarks", {})
except (OSError, json.JSONDecodeError) as err:
    print(f"bench-compare: cannot read results: {err}", file=sys.stderr)
    sys.exit(2)

# A SimTime_* row that a change deletes or renames would otherwise drop out
# of the drift gate unseen: every row only one file has is listed, and one
# the committed (OLD) file has but NEW lacks fails the compare.
def sim_rows(rows):
    return {name for name in rows if name.startswith("SimTime_")}

missing = sorted(sim_rows(old) - sim_rows(new))
added = sorted(sim_rows(new) - sim_rows(old))
common = sorted(set(old) & set(new))

wall_flagged = []
sim_flagged = []
compared = 0
for name in common:
    old_ns = old[name].get("real_ns")
    new_ns = new[name].get("real_ns")
    if not isinstance(old_ns, (int, float)) or not isinstance(new_ns, (int, float)):
        continue
    base = name.split("/")[0]
    if base.startswith("Wall_"):
        compared += 1
        if old_ns > 0 and new_ns / old_ns > WALL_REGRESSION_RATIO:
            label = "WALL OVERHEAD  " if WALL_REPORT_ONLY else "WALL REGRESSION"
            wall_flagged.append(
                f"  {label} {name}: {old_ns:g} ns -> {new_ns:g} ns "
                f"({new_ns / old_ns:.2f}x)"
            )
    elif base.startswith("SimTime_"):
        compared += 1
        if old_ns != new_ns:
            sim_flagged.append(
                f"  SIMTIME DRIFT   {name}: {old_ns:g} ns -> {new_ns:g} ns"
            )

sim_flagged += [f"  SIMTIME MISSING {name}: only in {old_path}" for name in missing]
only_new = [f"  SIMTIME NEW     {name}: only in {new_path}" for name in added]

print(f"bench-compare: {compared} entries compared ({old_path} -> {new_path})")
if only_new:
    print("\n".join(only_new))
if wall_flagged or sim_flagged:
    print("\n".join(wall_flagged + sim_flagged))
    if sim_flagged or not WALL_REPORT_ONLY:
        sys.exit(1)
    print(
        "bench-compare: Wall_* slowdowns above are report-only "
        "(DCDO_BENCH_WALL_REPORT_ONLY=1); zero SimTime_* drift"
    )
    sys.exit(0)
threshold = f"{(WALL_REGRESSION_RATIO - 1) * 100:.0f}%"
print(
    f"bench-compare: no Wall_* slowdowns > {threshold}, "
    "no SimTime_* drift or missing row"
)
PYEOF
fi

SMOKE=0
FILTER=""
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    --*) echo "usage: $0 [--smoke|--compare OLD NEW] [benchmark-filter-regex]" >&2; exit 2 ;;
    *) FILTER="$arg" ;;
  esac
done

# Build (RelWithDebInfo, the one build the tests and examples use too).
BUILD_DIR=build
cmake --preset default >/dev/null || exit 1
cmake --build "$BUILD_DIR" -j "$(nproc)" || exit 1

if [ "$SMOKE" = 1 ]; then
  # Smoke mode: prove every bench still runs, not collect stable numbers.
  # Every bench keeps its full size, so each SimTime_* row must still match
  # the committed value; only the Wall_* repetitions shrink.
  EXTRA_ARGS="--benchmark_min_time=0.01"
else
  EXTRA_ARGS=""
  DCDO_BENCH_JSON=${DCDO_BENCH_JSON:-$PWD/BENCH_dcdo.json}
  export DCDO_BENCH_JSON
  echo "bench: recording results into $DCDO_BENCH_JSON"
fi
if [ -n "$FILTER" ]; then
  EXTRA_ARGS="$EXTRA_ARGS --benchmark_filter=$FILTER"
fi

FAILED=0
for bench in "$BUILD_DIR"/bench/bench_*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  echo "== $(basename "$bench") =="
  # shellcheck disable=SC2086
  "$bench" $EXTRA_ARGS || FAILED=1
done

exit "$FAILED"
