#!/usr/bin/env sh
# Static-analysis driver for the dcdo-tidy checks (DESIGN.md §12).
#
# Runs the six repo-specific checks over src/ against the committed
# suppression baseline (tools/dcdo-tidy/baseline.txt) and fails on any
# unsuppressed finding — this is what the CI `analyze` job gates on.
#
# The checks run in dcdo-analyze, the dependency-free engine every build
# compiles, so analysis works on every machine. It honors clang-tidy NOLINT
# comments; tests/analysis/fixtures/ pins each check's behavior.
#
# Usage:
#   scripts/analyze.sh                    # analyze src/, gate on baseline
#   scripts/analyze.sh --update-baseline  # rewrite the baseline from HEAD
#   BUILD_DIR=build-foo scripts/analyze.sh
set -u

cd "$(dirname "$0")/.." || exit 1

BUILD_DIR=${BUILD_DIR:-build}
BASELINE=tools/dcdo-tidy/baseline.txt
UPDATE_BASELINE=0
for arg in "$@"; do
  case "$arg" in
    --update-baseline) UPDATE_BASELINE=1 ;;
    *) echo "usage: $0 [--update-baseline]" >&2; exit 2 ;;
  esac
done

# --- Ensure a configured build ---------------------------------------------
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  echo "analyze: configuring $BUILD_DIR"
  cmake -B "$BUILD_DIR" -S . >/dev/null \
    || { echo "analyze: cmake configure failed" >&2; exit 1; }
fi

ANALYZE_SOURCES=$(find src \( -name '*.cc' -o -name '*.h' \) | sort)

DCDO_ANALYZE="$BUILD_DIR/tools/dcdo-tidy/dcdo-analyze"
if [ ! -x "$DCDO_ANALYZE" ]; then
  echo "analyze: building dcdo-analyze"
  cmake --build "$BUILD_DIR" --target dcdo-analyze >/dev/null \
    || { echo "analyze: build failed" >&2; exit 1; }
fi

# The span recorder stamps wall-clock time beside sim time by design (Chrome
# trace files); bench/ measures real elapsed time. Everything else must use
# sim time.
set -- --allow-wallclock=src/instrument/spans. --allow-wallclock=bench/

if [ "$UPDATE_BASELINE" = 1 ]; then
  # shellcheck disable=SC2086
  "$DCDO_ANALYZE" "$@" --write-baseline="$BASELINE" $ANALYZE_SOURCES
  exit $?
fi

# shellcheck disable=SC2086
"$DCDO_ANALYZE" "$@" --baseline="$BASELINE" $ANALYZE_SOURCES
STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "analyze: unsuppressed findings — fix them, add a NOLINT(check) with" >&2
  echo "analyze: a reason, or (transitionally) scripts/analyze.sh --update-baseline" >&2
fi
exit "$STATUS"
