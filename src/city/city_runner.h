// The fleet engine: simulates every neighbourhood of a CityConfig — sample,
// topology, trace, paired baseline + scheme days — sharded across the
// exec::SweepRunner, and folds the per-neighbourhood outcomes in index order
// into CityMetrics. Each shard derives all randomness from substreams keyed
// by (city seed, neighbourhood index), so the result is bit-identical for
// any thread count (asserted by tests/test_city_determinism.cpp).
#pragma once

#include <vector>

#include "city/city_config.h"
#include "city/city_metrics.h"
#include "core/scenario_presets.h"

namespace insomnia::city {

/// Outcome of a whole-city simulation.
struct CityResult {
  CityConfig config;
  CityMetrics metrics;
};

/// Simulates one neighbourhood of the city end to end (sample -> topology ->
/// trace -> paired no-sleep + scheme days). Pure function of (config,
/// presets, index); the runner calls this once per shard, and tests call it
/// directly to pin per-neighbourhood behaviour.
NeighbourhoodOutcome simulate_neighbourhood(const CityConfig& config,
                                            const std::vector<core::ScenarioPreset>& presets,
                                            std::size_t index);

/// The one city fold: accumulates per-neighbourhood outcomes, given in index
/// order, left to right into the city's aggregates (one slice per
/// config.mix component). run_city folds through here, and so does the
/// country runner when it schedules neighbourhoods itself, which keeps both
/// bit-identical to the serial accumulation.
CityMetrics fold_city(const CityConfig& config,
                      const std::vector<NeighbourhoodOutcome>& outcomes);

/// Runs the whole fleet against the preset registry (config.mix names).
CityResult run_city(const CityConfig& config);

/// Runs the fleet against a caller-supplied population: `presets[k]` stands
/// in for `config.mix[k]`'s registry entry. This is the hook tests (shrunken
/// scenarios) and future workload-diversity presets plug into.
CityResult run_city(const CityConfig& config,
                    const std::vector<core::ScenarioPreset>& presets);

}  // namespace insomnia::city
