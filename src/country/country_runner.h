// The country engine: instantiates every city of the portfolio (archetype
// draw -> neighbourhood count -> keyed city seed), simulates it through the
// city layer, collapses it to a CityDigest, and folds the digests into
// CountryMetrics in canonical order. Within a process, the neighbourhoods
// of a batch of cities run as one flat, longest-first work list across
// threads (exec::SweepRunner), and each city folds once its neighbourhoods
// land. City shards also split across processes (CountryRunOptions::procs,
// fork + shared checkpoint directory) or across separate invocations
// (checkpoint/resume) — every split produces bit-identical final aggregates
// because every shard derives all randomness from substreams keyed on
// (country seed, region, city) alone, and folds in canonical order.
//
// Resilience: the runner self-heals, and the unit of failure stays the
// city even though scheduling is per neighbourhood (a neighbourhood still
// failing after its retries fails its city). Failing shards are retried
// with capped-exponential-backoff full jitter; a child process that dies is
// re-forked from the last checkpoint; a shard still failing after its whole
// retry budget is QUARANTINED — dropped from the fold — instead of aborting
// the fleet, and the result reports the degradation (coverage fraction plus
// the quarantined city list). Because injected and simulated failures are
// pure functions of (seed, shard, attempt), the quarantine set is identical
// at any thread or process count. fail_fast restores abort-on-first-failure
// semantics; precondition violations (util::InvalidArgument) always abort.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "city/city_config.h"
#include "core/scenario_presets.h"
#include "country/country_config.h"
#include "country/country_metrics.h"
#include "resilience/fault_plan.h"

namespace insomnia::country {

/// One fully-derived city of the portfolio.
struct CitySample {
  std::size_t template_index = 0;  ///< which archetype the region drew
  city::CityConfig city;           ///< mix, neighbourhood count, keyed seed
};

/// Derives city `city_index` of region `region` — a pure function of
/// (config, region, city_index); sampling never consumes shared RNG state.
CitySample sample_city(const CountryConfig& config, std::uint32_t region,
                       std::uint32_t city_index);

/// Simulates one city shard end to end and collapses it to a digest: the
/// serial reference run_country's schedule must match bit for bit. Mix
/// preset names resolve through city::resolve_mix against `population` (the
/// test hook for shrunken scenarios), then the registry.
CityDigest simulate_city(const CountryConfig& config,
                         const std::vector<core::ScenarioPreset>& population,
                         std::uint32_t region, std::uint32_t city_index);

/// Execution knobs orthogonal to what is simulated (none of these can
/// change a digest, only how and when shards run — and, under faults,
/// which shards survive into the fold).
struct CountryRunOptions {
  /// Directory for checkpoint files; "" disables checkpointing. Created if
  /// missing; an existing checkpoint for the same config fingerprint is
  /// resumed (completed shards are not re-simulated), a mismatched one is
  /// refused.
  std::string checkpoint_dir;
  /// City shards between checkpoint rewrites; every neighbourhood of one
  /// such batch shares the flat work list. <= 0 selects
  /// max(8, 2 * worker threads).
  int flush_every = 0;
  /// Process fan-out: fork this many children, each simulating a
  /// round-robin slice of the pending shards and writing its own checkpoint
  /// file. Requires checkpoint_dir (the shared medium the results travel
  /// through). 1 = in-process only.
  int procs = 1;
  /// Test/ops hook simulating an interruption: stop (after checkpointing)
  /// once this many NEW shards completed this invocation. 0 = run to the
  /// end.
  std::size_t max_city_shards = 0;
  /// Seconds between fleet heartbeat lines on stderr; <= 0 disables. Only
  /// the in-process path (procs == 1) beats: metrics are per-process, so a
  /// forked parent has nothing live to report.
  double heartbeat_sec = 0.0;

  /// Deterministic fault injection plan (chaos testing); default none.
  /// Faults key off faults.seed when set, else the country seed.
  resilience::FaultPlan faults;
  /// Retry budget (>= 1) of each city prologue and of each neighbourhood
  /// task; 1 disables retries. Retries cannot change results — a task that
  /// eventually succeeds is bit-identical to one that succeeded first try.
  int max_attempts = 3;
  /// Capped-exponential full-jitter backoff between attempts of one shard;
  /// base <= 0 disables sleeping (retries run back to back).
  double backoff_base_ms = 0.0;
  double backoff_cap_ms = 0.0;
  /// Abort on the first shard or child failure (after retries) instead of
  /// quarantining and degrading. Precondition violations abort regardless.
  bool fail_fast = false;
};

/// One city dropped from the fold after exhausting its retry budget.
struct QuarantinedCity {
  std::uint32_t region = 0;
  std::uint32_t city = 0;
  /// what() of the first failing attempt of the city's prologue, or of its
  /// failing neighbourhood (which the message names)
  std::string reason;
  int attempts = 0;  ///< attempts that task made before giving up
};

/// One worker process that did not exit cleanly (the supervisor re-forks
/// survivors' work; this is the forensic record of what died and why).
struct ChildFailure {
  long pid = 0;
  int generation = 0;       ///< which re-fork round the child belonged to
  std::size_t slice = 0;    ///< its round-robin slice index
  std::size_t shard_count = 0;  ///< shards it was assigned
  std::string shard_range;  ///< "(r,c) .. (r,c)" first/last assigned shard
  int exit_status = -1;     ///< WEXITSTATUS when it exited; -1 if signalled
  int term_signal = 0;      ///< WTERMSIG when signalled; 0 if it exited

  /// "child pid 1234 (generation 0, slice 1, 5 shards (0,0) .. (1,4))
  ///  killed by signal 9" — the one-line triage string.
  std::string describe() const;
};

/// Outcome of one run_country invocation.
struct CountryResult {
  CountryConfig config;
  /// True when every city shard is accounted for — folded or quarantined.
  /// False when max_city_shards stopped the run early; the checkpoint (if
  /// any) holds completed_shards digests and the same call resumes.
  bool complete = false;
  std::size_t completed_shards = 0;
  std::size_t total_shards = 0;
  /// Folded aggregates over the surviving cities; populated only when
  /// complete.
  CountryMetrics metrics;

  /// Cities dropped from the fold (canonical order); empty on clean runs.
  std::vector<QuarantinedCity> quarantined;
  /// Worker processes that died across all supervision generations.
  std::vector<ChildFailure> child_failures;

  /// A degraded run completed, but the fold is missing quarantined cities.
  bool degraded() const { return !quarantined.empty(); }
  /// Fraction of city shards that made it into the fold, in [0, 1].
  double coverage() const {
    return total_shards == 0
               ? 1.0
               : static_cast<double>(completed_shards) /
                     static_cast<double>(total_shards);
  }
};

/// Runs the whole country. `population` as in simulate_city (empty: resolve
/// every preset name against the registry).
CountryResult run_country(const CountryConfig& config,
                          const CountryRunOptions& options = {},
                          const std::vector<core::ScenarioPreset>& population = {});

}  // namespace insomnia::country
