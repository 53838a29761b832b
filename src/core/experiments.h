// Figure-level experiment drivers. Each regenerates the data behind one or
// more of the paper's evaluation artefacts; the bench/ binaries only format
// what these return. Schemes are selected by registry name
// (core/scheme_registry.h) — any registered scheme, paper or beyond, can
// join a comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/scheme_registry.h"

namespace insomnia::core {

/// Configuration shared by the simulation experiments (Figs. 6-9 + §5.2.3).
struct MainExperimentConfig {
  ScenarioConfig scenario;
  /// Registered scheme names to evaluate (the no-sleep baseline is
  /// implicit). Unknown names throw util::InvalidArgument listing the valid
  /// ones. "soi" must be listed before any scheme whose spec pairs fairness
  /// against it (the Fig. 9b convention).
  std::vector<std::string> schemes;
  int runs = 10;                    ///< §5.2: 10 repetitions, averaged
  std::uint64_t seed = 42;
  std::size_t bins = 96;            ///< day-series resolution (15 min)
  double peak_start = 11.0 * 3600;  ///< §5.2.5 peak window 11:00-19:00
  double peak_end = 19.0 * 3600;
  /// Worker threads for sharding the paired days; 0 = auto (INSOMNIA_THREADS
  /// or the hardware concurrency). Results are bit-identical for any value.
  int threads = 0;
};

/// Aggregated outcome of one scheme across all runs.
struct SchemeOutcome {
  std::string scheme;   ///< registry name
  std::string display;  ///< figure-style display name

  // Day series (one value per bin, energy-weighted across runs).
  std::vector<double> savings;          ///< fraction vs no-sleep (Fig. 6)
  std::vector<double> isp_share;        ///< ISP share of savings (Fig. 8)
  std::vector<double> online_gateways;  ///< mean count (Fig. 7)
  std::vector<double> online_cards;     ///< mean count (§5.2.3)

  // Whole-day / peak-window summaries.
  double day_savings = 0.0;
  double day_isp_share = 0.0;
  double peak_online_gateways = 0.0;
  double peak_online_cards = 0.0;

  // QoS and fairness samples pooled across runs.
  std::vector<double> fct_increase;          ///< Fig. 9a, vs no-sleep
  std::vector<double> online_time_variation; ///< Fig. 9b, vs same-run SoI

  // Behaviour counters (per run averages).
  double wake_events = 0.0;
  double bh2_moves = 0.0;
  double bh2_home_returns = 0.0;
};

/// Result of the main experiment.
struct MainExperimentResult {
  MainExperimentConfig config;
  std::vector<SchemeOutcome> schemes;

  const SchemeOutcome& outcome(const std::string& scheme) const;
};

/// Runs every requested scheme over `runs` paired days (same trace and
/// topology per run across schemes) and aggregates.
MainExperimentResult run_main_experiment(const MainExperimentConfig& config);

/// One point of the Fig. 10 density sweep.
struct DensityPoint {
  double mean_available_gateways = 0.0;
  double mean_online_gateways = 0.0;  ///< over the peak window
};

/// Fig. 10: aggregation vs wireless density for `scheme` (the paper runs
/// BH2). Each density level uses fresh binomial connectivity matrices per
/// run. All (level, run) cells are independent and sharded over `threads`
/// workers (0 = auto); results are bit-identical for any thread count.
std::vector<DensityPoint> run_density_sweep(const ScenarioConfig& scenario,
                                            const std::vector<double>& mean_gateways,
                                            int runs, std::uint64_t seed, int threads = 0,
                                            const std::string& scheme = "bh2-kswitch");

/// Reads the per-experiment run count from the INSOMNIA_RUNS environment
/// variable, defaulting to `fallback` when unset (lets CI trade fidelity for
/// time). Non-numeric, zero, or negative values throw util::InvalidArgument:
/// a typo'd override must not silently run the wrong experiment.
int runs_from_env(int fallback);

}  // namespace insomnia::core
