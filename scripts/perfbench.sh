#!/usr/bin/env sh
# Repeatable single-machine perf baseline: builds Release and runs the
# bench/day_throughput harness (paired no-sleep + BH2 days across the
# scenario presets, one Engine run each, trace and topology generation
# included), leaving BENCH_day_throughput.json at the repo root. The JSON is
# this repo's tracked perf trajectory — compare wall_ms_per_day across
# commits measured on the same machine.
#
# Usage: scripts/perfbench.sh [--smoke] [build-dir]
#   --smoke    CI mode: one paired day per preset, then validate the JSON
#              shape (events/sec > 0) instead of gating on wall clock —
#              hosted runners are too noisy for absolute thresholds. Smoke
#              output goes to <build-dir>/BENCH_day_throughput.json so a
#              routine check.sh run never clobbers the committed repo-root
#              snapshot (which only a full run refreshes, deliberately).
#   build-dir  default: build
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
smoke=0
build_dir="$repo_root/build"
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke=1 ;;
    -*) echo "error: unknown option $arg (usage: $0 [--smoke] [build-dir])" >&2; exit 1 ;;
    *) build_dir="$arg" ;;
  esac
done
jobs=$(nproc 2>/dev/null || echo 4)

cmake -B "$build_dir" -S "$repo_root" > /dev/null
cmake --build "$build_dir" -j "$jobs" --target day_throughput > /dev/null

if [ "$smoke" -eq 1 ]; then
  out="$build_dir/BENCH_day_throughput.json"
  "$build_dir/day_throughput" --smoke --out "$out"
else
  out="$repo_root/BENCH_day_throughput.json"
  "$build_dir/day_throughput" --out "$out"
fi

# Validate the artefact: actually parseable JSON with the right tag, and
# the harness simulated something (events/sec strictly positive).
[ -s "$out" ] || { echo "error: $out missing or empty" >&2; exit 1; }
events=$(python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["benchmark"] == "day_throughput", "missing benchmark tag"
print(doc["total"]["events_per_sec"])
' "$out") || { echo "error: $out is not a valid day_throughput artefact" >&2; exit 1; }
awk "BEGIN { exit !($events > 0) }" || {
  echo "error: total events_per_sec is $events (expected > 0)" >&2; exit 1; }
echo "BENCH_day_throughput.json: total events/sec = $events"
