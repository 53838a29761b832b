// The city layer's two steps: simulate one neighbourhood of a CityConfig —
// sample, topology, trace, paired baseline + scheme days — and fold a city's
// outcomes in index order into CityMetrics. Each neighbourhood derives all
// randomness from substreams keyed by (city seed, neighbourhood index), so
// the fold is bit-identical however the neighbourhoods were scheduled
// (asserted by tests/test_city_determinism.cpp). country::run_country is the
// scheduler; country::simulate_city is the serial reference.
#pragma once

#include <vector>

#include "city/city_config.h"
#include "city/city_metrics.h"
#include "core/scenario_presets.h"

namespace insomnia::city {

/// Simulates one neighbourhood of the city end to end (sample -> topology ->
/// trace -> paired no-sleep + scheme days). Pure function of (config,
/// presets, index); `presets` as in sample_neighbourhood.
NeighbourhoodOutcome simulate_neighbourhood(const CityConfig& config,
                                            const std::vector<core::ScenarioPreset>& presets,
                                            std::size_t index);

/// The one city fold: accumulates per-neighbourhood outcomes, given in index
/// order, left to right into the city's aggregates (one slice per
/// config.mix component).
CityMetrics fold_city(const CityConfig& config,
                      const std::vector<NeighbourhoodOutcome>& outcomes);

}  // namespace insomnia::city
