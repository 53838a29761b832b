// The Fig. 10 density sweep, which draws a fresh binomial topology per
// density level and run, and the INSOMNIA_RUNS knob every figure driver
// reads. Every other figure experiment runs through core::Engine
// (core/engine.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"

namespace insomnia::core {

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
