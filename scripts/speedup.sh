#!/usr/bin/env sh
# Measures the parallel engine's wall-clock scaling on two workloads, each
# run serially and with N threads:
#   * the Fig. 6 driver (INSOMNIA_THREADS=1 vs N), whose Engine run shards
#     paired runs;
#   * the country fleet at --scale 0.01 --nbhd-scale 0.1 --seed 1
#     (--threads 1 vs N), whose one metro city holds 8 of 35 neighbourhoods,
#     so it scales only while neighbourhoods, not cities, are scheduled.
# Results are bit-identical by construction (see tests/test_exec_determinism.cpp
# and tests/test_country_runner.cpp); this script checks the other half of
# the contract — that wall-clock actually scales with cores.
#
# Usage: scripts/speedup.sh [build-dir] [threads]
#   build-dir  default: build
#   threads    default: nproc
#   SPEEDUP_MIN  when set (e.g. 3.0), exit nonzero if either speedup is
#                below it.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
threads=${2:-$(nproc 2>/dev/null || echo 4)}
fig06="$build_dir/fig06_energy_savings"
fleet="$build_dir/country01_fleet"

for driver in "$fig06" "$fleet"; do
  [ -x "$driver" ] || { echo "error: $driver not built (run scripts/check.sh first)" >&2; exit 2; }
done

runs=${INSOMNIA_RUNS:-8}

# GNU date has nanosecond %N; BSD/macOS date prints a literal "N" — fall
# back to second granularity there (still fine for multi-second runs).
if [ "$(date +%N)" != "N" ] 2>/dev/null; then
  now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
else
  now_ms() { echo $(( $(date +%s) * 1000 )); }
fi

# Runs "$@" with stdout discarded and prints its wall time in ms.
elapsed_ms() {
  start=$(now_ms)
  "$@" > /dev/null
  end=$(now_ms)
  ms=$(( end - start ))
  [ "$ms" -ge 1 ] || ms=1   # guard the ratio against sub-resolution runs
  echo "$ms"
}

below_min=0

# report LABEL SERIAL_MS PARALLEL_MS: prints the pair and the speedup, and
# notes a speedup below SPEEDUP_MIN.
report() {
  speedup=$(awk "BEGIN { printf \"%.2f\", $2 / $3 }")
  echo "$1"
  echo "  1 thread : $2 ms"
  echo "  $threads threads: $3 ms"
  echo "  speedup  : ${speedup}x"
  if [ -n "${SPEEDUP_MIN:-}" ] && ! awk "BEGIN { exit !($speedup >= $SPEEDUP_MIN) }"; then
    echo "error: $1 speedup ${speedup}x below required ${SPEEDUP_MIN}x" >&2
    below_min=1
  fi
}

fig06_serial=$(elapsed_ms env INSOMNIA_RUNS="$runs" INSOMNIA_THREADS=1 "$fig06")
fig06_parallel=$(elapsed_ms env INSOMNIA_RUNS="$runs" INSOMNIA_THREADS="$threads" "$fig06")
report "fig06_energy_savings, $runs paired runs" "$fig06_serial" "$fig06_parallel"

fleet_args="--scale 0.01 --nbhd-scale 0.1 --seed 1"
# shellcheck disable=SC2086  # fleet_args is a word list on purpose
fleet_serial=$(elapsed_ms env INSOMNIA_HEARTBEAT=off "$fleet" $fleet_args --threads 1)
# shellcheck disable=SC2086
fleet_parallel=$(elapsed_ms env INSOMNIA_HEARTBEAT=off "$fleet" $fleet_args --threads "$threads")
report "country01_fleet $fleet_args" "$fleet_serial" "$fleet_parallel"

exit "$below_min"
