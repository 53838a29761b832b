// Deterministic sampling of one neighbourhood from a city description.
// Neighbourhood i draws its preset and jitter from a sim::Random substream
// keyed by (city seed, i) alone, so the sample is a pure function of the
// config and the index — the property that lets country::run_country
// schedule a city's neighbourhoods across any number of threads and still
// fold bit-identical results.
#pragma once

#include <cstddef>
#include <vector>

#include "city/city_config.h"
#include "core/scenario_presets.h"

namespace insomnia::city {

/// One fully-instantiated neighbourhood of the fleet.
struct NeighbourhoodSample {
  std::size_t mix_index = 0;     ///< which CityMixComponent it was drawn from
  double diurnal_phase = 0.0;    ///< applied profile offset, seconds
  core::ScenarioConfig scenario; ///< preset + jitter, internally consistent
};

/// Resolves the mix components in mix order: each name is looked up in
/// `population` first (caller-supplied scenarios, e.g. shrunken ones in
/// tests), then in the preset registry. Throws util::InvalidArgument on a
/// structurally invalid config (validate) or a name found in neither
/// (listing the registry's).
std::vector<core::ScenarioPreset> resolve_mix(
    const CityConfig& config, const std::vector<core::ScenarioPreset>& population = {});

/// Samples neighbourhood `index` of the city. `presets[k]` must be the
/// scenario for `config.mix[k]` (resolve_mix). The jittered scenario is
/// re-squared so it is always runnable: the DSLAM grows whole switch groups
/// until every gateway has a port, and the overlap-graph degree target is
/// clamped to the jittered gateway count.
NeighbourhoodSample sample_neighbourhood(const CityConfig& config,
                                         const std::vector<core::ScenarioPreset>& presets,
                                         std::size_t index);

}  // namespace insomnia::city
