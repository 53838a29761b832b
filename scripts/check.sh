#!/usr/bin/env sh
# One-shot verify: configure + build + test. Exits nonzero on any failure.
# This is the repo's tier-1 check; run it before every PR.
#
# Usage: scripts/check.sh [build-dir]    (default: build)
#
# INSOMNIA_THREADS passes through to the experiment engine and is safe to
# set: sweep results are bit-identical for any thread count (asserted by
# test_exec_determinism), so the suite's outcome cannot depend on it.
# INSOMNIA_PRESET does NOT affect this check — tests pin their own
# scenarios; presets only steer the bench/ drivers.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
jobs=$(nproc 2>/dev/null || echo 4)

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$jobs"
# Reduced differential fuzz for the routine check (the suite's default is
# 1000 scenarios; nightly/local full runs can unset this or raise it). The
# day-scale fluid-engine twin gate is a ctest too (test_flow_day_twin).
INSOMNIA_DIFF_SCENARIOS=${INSOMNIA_DIFF_SCENARIOS:-250} \
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

# Small-N country fleet smoke: the whole src/city + src/country stack
# (portfolio sampling -> neighbourhood sampling and paired days -> streamed
# city folds -> checkpointed roll-up -> fully simulated §5.4 world figure)
# through the real CLI, including a forced
# kill-and-resume cycle. The resumed run's JSON report must be BYTE-identical
# to an uninterrupted run's (doubles serialize via shortest-round-trip
# to_chars, so byte equality is bit equality). Telemetry is disabled for
# these runs: the telemetry block carries wall-clock values, which would
# break the byte comparison by construction.
country_ckpt="$build_dir/country_smoke_ckpt"
rm -rf "$country_ckpt"
INSOMNIA_OBS=off "$build_dir/country01_fleet" --scale 0.005 --nbhd-scale 0.05 --seed 7 \
  --checkpoint "$country_ckpt" --flush-every 1 --max-shards 2 \
  --json "$build_dir/country01_partial.json" > /dev/null
INSOMNIA_OBS=off "$build_dir/country01_fleet" --scale 0.005 --nbhd-scale 0.05 --seed 7 \
  --checkpoint "$country_ckpt" \
  --json "$build_dir/country01_resumed.json" > /dev/null
INSOMNIA_OBS=off "$build_dir/country01_fleet" --scale 0.005 --nbhd-scale 0.05 --seed 7 \
  --json "$build_dir/country01_fresh.json" > /dev/null
cmp "$build_dir/country01_resumed.json" "$build_dir/country01_fresh.json"
python3 -m json.tool "$build_dir/country01_resumed.json" > /dev/null
rm -rf "$country_ckpt"

# Observability must never change results: an obs-enabled run's JSON minus
# its "telemetry" block must equal the INSOMNIA_OBS=off run's payload, and
# the exported Chrome trace must parse.
INSOMNIA_HEARTBEAT=off "$build_dir/country01_fleet" --scale 0.005 --nbhd-scale 0.05 --seed 7 \
  --json "$build_dir/country01_obs.json" \
  --trace "$build_dir/country01_smoke.trace" > /dev/null
python3 - "$build_dir/country01_obs.json" "$build_dir/country01_fresh.json" <<'EOF'
import json, sys
with_obs = json.load(open(sys.argv[1]))
without = json.load(open(sys.argv[2]))
assert "telemetry" in with_obs, "obs-enabled run must report a telemetry block"
with_obs.pop("telemetry")
assert with_obs == without, "telemetry changed the report payload"
print("obs-on report matches obs-off modulo the telemetry block")
EOF
python3 -m json.tool "$build_dir/country01_smoke.trace" > /dev/null

# Chaos smoke: a RECOVERABLE deterministic fault plan — injected shard
# throws and latency, every one healed by the retry policy — must produce a
# report BYTE-identical to the fault-free run above. Fault injection and
# self-healing are invisible unless a shard exhausts its retry budget.
# (docs/RESILIENCE.md documents the fault grammar and the retry policy.)
INSOMNIA_OBS=off "$build_dir/country01_fleet" --scale 0.005 --nbhd-scale 0.05 --seed 7 \
  --fault-spec "shard-throw=0.45,slow-shard=0.1:5ms" --max-attempts 6 \
  --json "$build_dir/country01_chaos.json" > /dev/null
cmp "$build_dir/country01_chaos.json" "$build_dir/country01_fresh.json"

# Scheme-registry + Engine smoke: a beyond-paper registered scheme end to
# end through the unified CLI, with the structured RunReport JSON validated
# by an independent parser.
"$build_dir/engine01_run" --scheme multilevel-doze --runs 1 --bins 6 \
  --json "$build_dir/engine01_report.json" > /dev/null
python3 -m json.tool "$build_dir/engine01_report.json" > /dev/null

# Figure-driver smoke: the Engine-backed figure and table drivers (Figs.
# 6-9, the §5.2.3 and §5.4 tables), the Fig. 10 density sweep and the four
# ablations end to end at one paired day on the small sparse-rural preset,
# each --json report validated by an independent parser.
for driver in fig06_energy_savings fig07_online_gateways fig08_isp_share \
    fig09a_completion_time fig09b_fairness tab01_online_cards tab02_summary_savings \
    fig10_density abl01_switch_size abl02_bh2_thresholds abl03_wake_time \
    abl04_backup_count; do
  INSOMNIA_RUNS=1 "$build_dir/$driver" --preset sparse-rural \
    --json "$build_dir/smoke_$driver.json" > /dev/null
  python3 -m json.tool "$build_dir/smoke_$driver.json" > /dev/null
done

# Online-mode replay equivalence: the live controller in virtual time over
# the same records and seed must produce a report BYTE-identical to the
# offline engine (docs/LIVE.md). Gate A: the generator source against the
# synthetic offline day. Gate B: a live day recorded with --record, then
# replayed both offline (--trace-file) and live (--source tail) — all three
# reports must agree. Telemetry is off: its block carries wall-clock values.
INSOMNIA_OBS=off "$build_dir/engine01_run" --runs 1 --seed 42 \
  --json "$build_dir/live_offline.json" > /dev/null
INSOMNIA_OBS=off "$build_dir/livectl" --source gen --seed 42 \
  --json "$build_dir/live_gen.json" > /dev/null
cmp "$build_dir/live_gen.json" "$build_dir/live_offline.json"
INSOMNIA_OBS=off "$build_dir/livectl" --source gen --seed 42 \
  --record "$build_dir/live_recorded.trace" > /dev/null
INSOMNIA_OBS=off "$build_dir/engine01_run" --runs 1 --seed 42 \
  --trace-file "$build_dir/live_recorded.trace" \
  --json "$build_dir/live_replay_offline.json" > /dev/null
INSOMNIA_OBS=off "$build_dir/livectl" --source tail \
  --path "$build_dir/live_recorded.trace" --seed 42 \
  --json "$build_dir/live_replay_tail.json" > /dev/null
cmp "$build_dir/live_replay_tail.json" "$build_dir/live_replay_offline.json"

# Obs-enabled livectl leg: the JSON must parse and its telemetry block must
# carry the ingest->decision latency histogram (the bounded-latency claim
# is measured, not asserted).
INSOMNIA_HEARTBEAT=off "$build_dir/livectl" --source gen --seed 42 \
  --json "$build_dir/live_obs.json" > /dev/null
python3 -m json.tool "$build_dir/live_obs.json" > /dev/null
grep -q "live.ingest_decision_ns" "$build_dir/live_obs.json"
