#!/usr/bin/env sh
# Trace driver: builds the default preset (tracing is compiled in by
# default), runs the traced example, and summarizes the exported
# Chrome-trace JSON. Load the file itself in chrome://tracing or
# https://ui.perfetto.dev for the visual timeline.
#
# Usage:
#   scripts/trace.sh                   # run, write trace_evolution.json
#   scripts/trace.sh OUT.json          # run, write OUT.json
#   scripts/trace.sh --summarize F.json  # summarize an existing trace only
#   scripts/trace.sh --compare GOLDEN.json NEW.json
#       # exit 1 unless both hold the same simulated-time content: the
#       # multiset of (name, cat, ts, dur, pid, notes, parent's name) over
#       # every event, and every exported dcdoMetrics value by name. Span
#       # ids and wall-clock stamps are left out, so two runs of the same
#       # code compare equal.
set -u

cd "$(dirname "$0")/.." || exit 1

summarize() {
  python3 - "$1" <<'PYEOF'
import json
import sys

path = sys.argv[1]
try:
    with open(path) as f:
        trace = json.load(f)
except (OSError, json.JSONDecodeError) as err:
    print(f"trace: cannot read {path}: {err}", file=sys.stderr)
    sys.exit(2)

events = trace.get("traceEvents", [])
by_name = {}
roots = set()
for event in events:
    by_name.setdefault(event["name"], []).append(event)
    args = event.get("args", {})
    if args.get("root"):
        roots.add(args["root"])

print(f"trace: {path}: {len(events)} events, {len(roots)} causal trees")
for name in sorted(by_name):
    spans = by_name[name]
    durs = [e["dur"] for e in spans if "dur" in e]
    if durs:
        span_ms = sum(durs) / 1000.0
        print(f"  {name:<14} x{len(spans):<4} total {span_ms:.3f} ms (sim)")
    else:
        print(f"  {name:<14} x{len(spans):<4} (instant)")

metrics = trace.get("dcdoMetrics", {})
counters = metrics.get("counters", {})
if counters:
    print("counters:")
    for name in sorted(counters):
        print(f"  {name} = {counters[name]}")
PYEOF
}

compare() {
  python3 - "$1" "$2" <<'PYEOF'
import collections
import json
import sys

# Per-span bookkeeping that differs between identical runs, or that only
# names other spans; the parent is compared by its name instead.
IDS = {"span", "parent", "root", "wall_ns"}


def load(path):
    try:
        with open(path) as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"trace: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    events = trace.get("traceEvents", [])
    # Every section of dcdoMetrics ("counters"), by name: a value only one
    # file exports is a difference too.
    metrics = {f"{kind[:-1]} {name}": value
               for kind, section in trace.get("dcdoMetrics", {}).items()
               for name, value in section.items()}
    names = {e.get("args", {}).get("span"): e["name"] for e in events}
    keys = collections.Counter()
    for e in events:
        args = e.get("args", {})
        notes = tuple(sorted((k, str(v)) for k, v in args.items()
                             if k not in IDS))
        keys[(e["name"], e.get("cat"), e.get("ts"), e.get("dur"),
              e.get("pid"), notes, names.get(args.get("parent"), ""))] += 1
    return keys, metrics


(golden, golden_metrics), (new, new_metrics) = (load(sys.argv[1]),
                                                load(sys.argv[2]))
missing, added = golden - new, new - golden
metric_diffs = sorted(name for name in golden_metrics.keys() | new_metrics.keys()
                      if golden_metrics.get(name) != new_metrics.get(name))


def show(label, keys):
    for (name, cat, ts, dur, pid, notes, parent), n in sorted(
            keys.items(), key=lambda item: (item[0][2], item[0][0])):
        text = ", ".join(f"{k}={v}" for k, v in notes)
        print(f"{label} x{n} {name} cat={cat} ts={ts} dur={dur} pid={pid} "
              f"parent={parent or '-'} {{{text}}}")


show(f"only in {sys.argv[1]}:", missing)
show(f"only in {sys.argv[2]}:", added)
for name in metric_diffs:
    print(f"metric {name}: {golden_metrics.get(name, '-')} in {sys.argv[1]}, "
          f"{new_metrics.get(name, '-')} in {sys.argv[2]}")
total = sum(golden.values())
if missing or added or metric_diffs:
    print(f"trace: {sum(missing.values())} event(s) only in {sys.argv[1]}, "
          f"{sum(added.values())} only in {sys.argv[2]}, "
          f"{len(metric_diffs)} metric(s) differ")
    sys.exit(1)
print(f"trace: {total} events and {len(golden_metrics)} metrics, identical "
      "simulated-time content")
PYEOF
}

if [ "${1:-}" = "--compare" ]; then
  [ -n "${2:-}" ] && [ -n "${3:-}" ] || {
    echo "usage: $0 --compare GOLDEN.json NEW.json" >&2; exit 2; }
  compare "$2" "$3"
  exit $?
fi

if [ "${1:-}" = "--summarize" ]; then
  [ -n "${2:-}" ] || { echo "usage: $0 --summarize TRACE.json" >&2; exit 2; }
  summarize "$2"
  exit $?
fi

case "${1:-}" in
  --*) echo "usage: $0 [OUT.json] | --summarize TRACE.json |" \
         "--compare GOLDEN.json NEW.json" >&2; exit 2 ;;
esac
OUT=${1:-trace_evolution.json}

cmake --preset default >/dev/null || exit 1
cmake --build build -j "$(nproc)" --target traced_evolution || exit 1
./build/examples/traced_evolution "$OUT" || exit 1
summarize "$OUT"
