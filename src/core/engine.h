// The unified experiment-facing entry point: a declarative RunSpec in, a
// structured RunReport out. One Engine call replaces the scenario-resolve /
// topology / trace / paired-day / aggregate boilerplate every driver used
// to hand-roll: it resolves a scenario (preset name or inline config),
// builds the shared topology, runs `runs` paired days through
// core::simulate_paired_day (traffic-free no-sleep baseline + the named
// scheme), shards them over the parallel sweep engine, and folds the
// outcomes deterministically (bit-identical for any thread count).
// RunReport serializes to JSON via util/json_writer for machine consumers
// (--json, CI checks, notebooks).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/scheme_registry.h"

namespace insomnia::core {

/// Declarative description of one engine run.
struct RunSpec {
  /// Scenario preset name (core/scenario_presets.h); empty selects the
  /// paper default unless `scenario` is set. Unknown names throw
  /// util::InvalidArgument listing the valid presets.
  std::string preset;
  /// Inline scenario; mutually exclusive with a non-empty `preset`.
  std::optional<ScenarioConfig> scenario;
  /// Path of a recorded flow trace (trace/trace_io.h) replayed in every
  /// run; empty generates a fresh synthetic day per run (§5.2 methodology).
  std::string trace_file;
  /// Registered scheme name (core/scheme_registry.h). Unknown names throw
  /// util::InvalidArgument listing the valid schemes.
  std::string scheme = "bh2-kswitch";
  std::uint64_t seed = 42;
  int runs = 1;      ///< paired days (§5.2 uses 10, averaged)
  int threads = 0;   ///< 0 = auto (INSOMNIA_THREADS / hardware concurrency)
  std::size_t bins = 24;  ///< day-series resolution
  double peak_start = 11.0 * 3600.0;  ///< §5.2.5 peak window
  double peak_end = 19.0 * 3600.0;
};

/// One paired simulated day (baseline + scheme on the same trace).
struct EngineDay {
  double baseline_user_energy = 0.0;  ///< J
  double baseline_isp_energy = 0.0;
  double user_energy = 0.0;
  double isp_energy = 0.0;
  double savings = 0.0;    ///< fraction vs baseline, whole day
  double isp_share = 0.0;  ///< ISP share of the savings
  double peak_online_gateways = 0.0;
  double peak_online_cards = 0.0;
  long wake_events = 0;
  long bh2_moves = 0;
  long bh2_home_returns = 0;
  std::uint64_t executed_events = 0;  ///< scheme run only
  std::uint64_t flows = 0;            ///< trace flows replayed
};

/// Structured result of Engine::run.
struct RunReport {
  // Resolved spec echo.
  std::string scheme;
  std::string scheme_display;
  std::string preset;      ///< preset name, or "(inline)" for inline configs
  std::string trace_file;  ///< empty for synthetic traces
  std::uint64_t seed = 0;
  int runs = 0;
  std::size_t bins = 0;
  double peak_start = 0.0;
  double peak_end = 0.0;
  int clients = 0;
  int gateways = 0;

  std::vector<EngineDay> days;  ///< one entry per run, in run order

  // Aggregates across runs (energy-weighted, matching core/experiments).
  double day_savings = 0.0;
  double day_isp_share = 0.0;
  double peak_online_gateways = 0.0;  ///< mean across runs
  double mean_wake_events = 0.0;
  std::uint64_t executed_events = 0;  ///< total, scheme runs

  // Day series (one value per bin).
  std::vector<double> savings_series;          ///< energy-weighted across runs
  std::vector<double> online_gateways_series;  ///< mean count

  /// Stable-key-order, locale-independent JSON document. With
  /// `include_telemetry` a "telemetry" block (counters, phase wall times,
  /// RSS — see docs/TELEMETRY.md) is appended; it contains run-dependent
  /// wall-clock values, so byte-compare consumers keep the default.
  std::string to_json(bool include_telemetry = false) const;
};

/// The facade. Stateless apart from the registry it resolves schemes in.
class Engine {
 public:
  /// Uses the process-wide scheme registry.
  Engine();
  /// Resolves schemes in a caller-supplied registry (tests, embeddings);
  /// the baseline is always run_no_sleep_baseline, never a registry entry.
  explicit Engine(const SchemeRegistry& registry);

  /// Runs the spec. Run r is core::simulate_paired_day's stream r under
  /// core::kRunDayKeys (core/day_summary.h), the keys core/experiments uses
  /// too, so a single-scheme Engine run reproduces the main experiment's
  /// per-run days bit for bit (pinned by tests/test_core_engine.cpp).
  RunReport run(const RunSpec& spec) const;

 private:
  const SchemeRegistry* registry_;
};

}  // namespace insomnia::core
