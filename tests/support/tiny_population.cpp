#include "support/tiny_population.h"

#include <cstddef>

#include "city/city_runner.h"

namespace insomnia::city {

core::ScenarioPreset tiny_preset(const std::string& name, int clients, int gateways) {
  core::ScenarioPreset preset;
  preset.name = name;
  preset.summary = name;
  core::ScenarioConfig& s = preset.scenario;
  s.client_count = clients;
  s.gateway_count = gateways;
  s.degrees.node_count = gateways;
  s.degrees.mean_degree = 3.0;
  s.traffic.client_count = clients;
  s.dslam.line_cards = 4;
  s.dslam.ports_per_card = 2;
  return preset;
}

std::vector<core::ScenarioPreset> tiny_population() {
  return {tiny_preset("tiny-a", 48, 8), tiny_preset("tiny-b", 24, 6)};
}

CityMetrics fold_serially(const CityConfig& config,
                          const std::vector<core::ScenarioPreset>& presets) {
  std::vector<NeighbourhoodOutcome> outcomes;
  for (std::size_t k = 0; k < static_cast<std::size_t>(config.neighbourhoods); ++k) {
    outcomes.push_back(simulate_neighbourhood(config, presets, k));
  }
  return fold_city(config, outcomes);
}

}  // namespace insomnia::city
