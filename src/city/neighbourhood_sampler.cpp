#include "city/neighbourhood_sampler.h"

#include <algorithm>
#include <cmath>

#include "sim/random.h"
#include "util/error.h"

namespace insomnia::city {

namespace {

/// Substream salt for the sampling draws; the neighbourhood's paired day
/// draws from core::kNeighbourhoodDayKeys.
constexpr std::uint64_t kSamplerSalt = 11;

}  // namespace

std::vector<core::ScenarioPreset> resolve_mix(
    const CityConfig& config, const std::vector<core::ScenarioPreset>& population) {
  validate(config);
  std::vector<core::ScenarioPreset> presets;
  presets.reserve(config.mix.size());
  for (const CityMixComponent& component : config.mix) {
    const auto found = std::find_if(
        population.begin(), population.end(),
        [&](const core::ScenarioPreset& preset) { return preset.name == component.preset; });
    presets.push_back(found != population.end() ? *found
                                                : core::find_scenario_preset(component.preset));
  }
  return presets;
}

NeighbourhoodSample sample_neighbourhood(const CityConfig& config,
                                         const std::vector<core::ScenarioPreset>& presets,
                                         std::size_t index) {
  util::require(presets.size() == config.mix.size(),
                "one resolved preset per mix component required");

  sim::Random rng(sim::Random::substream_seed(config.seed, index, kSamplerSalt));

  std::vector<double> weights;
  weights.reserve(config.mix.size());
  for (const CityMixComponent& component : config.mix) weights.push_back(component.weight);

  NeighbourhoodSample sample;
  sample.mix_index = rng.weighted_index(weights);
  const NeighbourhoodJitter& jitter = config.mix[sample.mix_index].jitter;
  core::ScenarioConfig scenario = presets[sample.mix_index].scenario;

  // Plant size: jitter the gateway count, then the subscriber density
  // (clients per gateway), so both the plant and its load vary together.
  const double gateway_factor =
      1.0 + rng.uniform(-jitter.gateway_count_spread, jitter.gateway_count_spread);
  const int gateways = std::max(
      2, static_cast<int>(std::lround(scenario.gateway_count * gateway_factor)));
  const double density =
      static_cast<double>(scenario.client_count) / scenario.gateway_count;
  const double density_factor =
      1.0 + rng.uniform(-jitter.client_density_spread, jitter.client_density_spread);
  const int clients =
      std::max(1, static_cast<int>(std::lround(gateways * density * density_factor)));

  // Loop quality: multiplicative log-normal with median 1, so the preset's
  // rate is the typical neighbourhood and the tails are asymmetric the way
  // measured sync rates are.
  scenario.backhaul_bps *= rng.lognormal(0.0, jitter.backhaul_sigma);

  // Activity phase: this neighbourhood's day runs early or late.
  sample.diurnal_phase =
      rng.uniform(-jitter.diurnal_phase_spread, jitter.diurnal_phase_spread);

  scenario.gateway_count = gateways;
  scenario.client_count = clients;
  scenario.degrees.node_count = gateways;
  scenario.degrees.mean_degree =
      std::min(scenario.degrees.mean_degree, static_cast<double>(gateways - 1));
  scenario.traffic.client_count = clients;
  scenario.traffic.profile = scenario.traffic.profile.shifted(sample.diurnal_phase);

  // Grow the DSLAM in whole switch groups until every gateway has a port
  // (gateway_count <= ports is a runtime precondition; k-switching needs the
  // card count to stay a multiple of the switch size).
  const int group = std::max(1, scenario.dslam.switch_size);
  int cards = std::max(scenario.dslam.line_cards, group);
  cards -= cards % group;  // >= group: max() above guarantees a whole group
  while (cards * scenario.dslam.ports_per_card < gateways) cards += group;
  scenario.dslam.line_cards = cards;

  sample.scenario = scenario;
  return sample;
}

}  // namespace insomnia::city
