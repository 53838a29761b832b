#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "city/city_config.h"
#include "city/neighbourhood_sampler.h"
#include "support/tiny_population.h"
#include "util/error.h"

namespace insomnia::city {
namespace {

CityConfig two_component_city(double spread = 0.25) {
  NeighbourhoodJitter jitter;
  jitter.gateway_count_spread = spread;
  jitter.client_density_spread = spread;
  jitter.backhaul_sigma = 0.2;
  jitter.diurnal_phase_spread = 3600.0;
  CityConfig config;
  config.neighbourhoods = 50;
  config.seed = 99;
  config.mix = {{"tiny-a", 3.0, jitter}, {"tiny-b", 1.0, jitter}};
  return config;
}

TEST(CitySampler, IsAPureFunctionOfSeedAndIndex) {
  const CityConfig config = two_component_city();
  const auto presets = tiny_population();
  for (std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{31}}) {
    const NeighbourhoodSample a = sample_neighbourhood(config, presets, i);
    const NeighbourhoodSample b = sample_neighbourhood(config, presets, i);
    EXPECT_EQ(a.mix_index, b.mix_index);
    EXPECT_EQ(a.diurnal_phase, b.diurnal_phase);
    EXPECT_EQ(a.scenario.gateway_count, b.scenario.gateway_count);
    EXPECT_EQ(a.scenario.client_count, b.scenario.client_count);
    EXPECT_EQ(a.scenario.backhaul_bps, b.scenario.backhaul_bps);
  }
}

TEST(CitySampler, JitterStaysWithinItsBounds) {
  const CityConfig config = two_component_city(0.25);
  const auto presets = tiny_population();
  bool saw_varied_gateways = false;
  for (std::size_t i = 0; i < 200; ++i) {
    const NeighbourhoodSample sample = sample_neighbourhood(config, presets, i);
    const core::ScenarioConfig& preset = presets[sample.mix_index].scenario;
    const core::ScenarioConfig& s = sample.scenario;

    // Gateways within the uniform spread (±1 for rounding), never below 2.
    EXPECT_GE(s.gateway_count, std::max(2.0, preset.gateway_count * 0.75 - 1.0));
    EXPECT_LE(s.gateway_count, preset.gateway_count * 1.25 + 1.0);
    if (s.gateway_count != preset.gateway_count) saw_varied_gateways = true;

    // Clients track the jittered plant: density within its own spread.
    const double density = static_cast<double>(s.client_count) / s.gateway_count;
    const double preset_density =
        static_cast<double>(preset.client_count) / preset.gateway_count;
    EXPECT_GE(density, preset_density * 0.75 - 1.0);
    EXPECT_LE(density, preset_density * 1.25 + 1.0);

    // Phase within ±1 h; the profile actually carries it.
    EXPECT_LE(std::abs(sample.diurnal_phase), 3600.0);
    EXPECT_DOUBLE_EQ(s.traffic.profile.phase(), sample.diurnal_phase);

    // The jittered scenario stays internally consistent and runnable.
    EXPECT_EQ(s.degrees.node_count, s.gateway_count);
    EXPECT_LE(s.degrees.mean_degree, static_cast<double>(s.gateway_count - 1));
    EXPECT_EQ(s.traffic.client_count, s.client_count);
    EXPECT_LE(s.gateway_count, s.dslam_ports());
    EXPECT_EQ(s.dslam.line_cards % s.dslam.switch_size, 0);
    EXPECT_GT(s.backhaul_bps, 0.0);
  }
  EXPECT_TRUE(saw_varied_gateways);
}

TEST(CitySampler, ZeroJitterReproducesThePreset) {
  CityConfig config = two_component_city();
  config.mix = {{"tiny-a", 1.0, NeighbourhoodJitter{}}};
  const std::vector<core::ScenarioPreset> presets{tiny_preset("tiny-a", 48, 8)};
  for (std::size_t i = 0; i < 20; ++i) {
    const NeighbourhoodSample sample = sample_neighbourhood(config, presets, i);
    EXPECT_EQ(sample.mix_index, 0u);
    EXPECT_EQ(sample.scenario.gateway_count, 8);
    EXPECT_EQ(sample.scenario.client_count, 48);
    EXPECT_DOUBLE_EQ(sample.scenario.backhaul_bps, presets[0].scenario.backhaul_bps);
    EXPECT_DOUBLE_EQ(sample.diurnal_phase, 0.0);
  }
}

TEST(CitySampler, MixWeightsSteerThePopulation) {
  const CityConfig config = two_component_city();  // weights 3 : 1
  const auto presets = tiny_population();
  int first = 0;
  const int n = 400;
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    if (sample_neighbourhood(config, presets, i).mix_index == 0) ++first;
  }
  // Expected 300 of 400; allow a wide deterministic margin.
  EXPECT_GT(first, n / 2);
  EXPECT_LT(first, n);
}

TEST(CitySampler, GrowsTheDslamInWholeSwitchGroups) {
  CityConfig config = two_component_city();
  NeighbourhoodJitter big;
  big.gateway_count_spread = 0.5;
  config.mix = {{"tiny-a", 1.0, big}};
  // 8 gateways on a 4x2 DSLAM: +50 % jitter can exceed the 8 ports, forcing
  // card growth in multiples of switch_size (4).
  const std::vector<core::ScenarioPreset> presets{tiny_preset("tiny-a", 48, 8)};
  bool grew = false;
  for (std::size_t i = 0; i < 100; ++i) {
    const NeighbourhoodSample sample = sample_neighbourhood(config, presets, i);
    EXPECT_LE(sample.scenario.gateway_count, sample.scenario.dslam_ports());
    EXPECT_EQ(sample.scenario.dslam.line_cards % 4, 0);
    if (sample.scenario.dslam.line_cards > 4) grew = true;
  }
  EXPECT_TRUE(grew);
}

TEST(CitySampler, ValidationRejectsBrokenConfigs) {
  const auto presets = tiny_population();
  CityConfig config = two_component_city();
  config.mix.clear();
  EXPECT_THROW(validate(config), util::InvalidArgument);

  config = two_component_city();
  config.neighbourhoods = 0;
  EXPECT_THROW(validate(config), util::InvalidArgument);

  config = two_component_city();
  config.mix[0].weight = 0.0;
  EXPECT_THROW(validate(config), util::InvalidArgument);

  config = two_component_city();
  config.mix[0].jitter.gateway_count_spread = 1.0;
  EXPECT_THROW(validate(config), util::InvalidArgument);

  config = two_component_city();
  config.mix[1].jitter.backhaul_sigma = -0.1;
  EXPECT_THROW(validate(config), util::InvalidArgument);

  config = two_component_city();
  config.peak_start = config.peak_end;
  EXPECT_THROW(validate(config), util::InvalidArgument);

  // Registry resolution rejects unknown names (structural validate does not).
  config = two_component_city();
  EXPECT_THROW(resolve_mix(config), util::InvalidArgument);

  // A presets vector that does not match the mix is rejected by the sampler.
  config = two_component_city();
  EXPECT_THROW(sample_neighbourhood(config, {presets[0]}, 0), util::InvalidArgument);
}

TEST(CitySampler, ResolveMixUsesTheRegistry) {
  CityConfig config;
  config.mix = {{"paper-default", 0.55, {}}, {"dense-urban", 0.30, {}},
                {"sparse-rural", 0.15, {}}};
  const std::vector<core::ScenarioPreset> presets = resolve_mix(config);
  ASSERT_EQ(presets.size(), config.mix.size());
  for (std::size_t k = 0; k < presets.size(); ++k) {
    EXPECT_EQ(presets[k].name, config.mix[k].preset);
    EXPECT_EQ(presets[k].scenario.gateway_count,
              core::find_scenario_preset(config.mix[k].preset).scenario.gateway_count);
  }
}

TEST(CitySampler, ResolveMixPrefersThePopulation) {
  // A population entry named like a registry preset shadows it; names it
  // lacks fall back to the registry, in mix order.
  const core::ScenarioPreset shadow = tiny_preset("dense-urban", 24, 6);
  CityConfig config;
  config.mix = {{"paper-default", 1.0, {}}, {"dense-urban", 1.0, {}}};
  const std::vector<core::ScenarioPreset> presets = resolve_mix(config, {shadow});
  ASSERT_EQ(presets.size(), 2u);
  EXPECT_EQ(presets[0].scenario.gateway_count,
            core::find_scenario_preset("paper-default").scenario.gateway_count);
  EXPECT_EQ(presets[1].name, "dense-urban");
  EXPECT_EQ(presets[1].scenario.gateway_count, 6);
  EXPECT_NE(core::find_scenario_preset("dense-urban").scenario.gateway_count, 6);

  // A name found in neither the population nor the registry throws.
  config.mix.push_back({"tiny-c", 1.0, {}});
  EXPECT_THROW(resolve_mix(config, tiny_population()), util::InvalidArgument);
}

}  // namespace
}  // namespace insomnia::city
