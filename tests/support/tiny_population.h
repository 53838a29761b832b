// The shrunken scenario population the city and country suites share: two
// presets small enough that a neighbourhood day takes milliseconds, with the
// code paths of the full-size ones. Only the test_* executables link it.
#pragma once

#include <string>
#include <vector>

#include "city/city_config.h"
#include "city/city_metrics.h"
#include "core/scenario_presets.h"

namespace insomnia::city {

/// A preset of `clients` clients over `gateways` gateways on an 8-port
/// DSLAM (4 cards x 2 ports), mean overlap degree 3.
core::ScenarioPreset tiny_preset(const std::string& name, int clients, int gateways);

/// {"tiny-a": 48 clients / 8 gateways, "tiny-b": 24 clients / 6 gateways}.
std::vector<core::ScenarioPreset> tiny_population();

/// The serial city fold: simulate_neighbourhood for every index in order,
/// then fold_city. `presets` as in simulate_neighbourhood.
CityMetrics fold_serially(const CityConfig& config,
                          const std::vector<core::ScenarioPreset>& presets);

}  // namespace insomnia::city
