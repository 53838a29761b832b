// City-layer behaviour on a shrunken two-preset population: structural
// sanity of the aggregates and a pinned-seed golden that locks the city
// aggregates the same way tests/test_regression_figures.cpp locks the figure
// experiments.
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "city/city_runner.h"
#include "city/neighbourhood_sampler.h"
#include "support/tiny_population.h"
#include "util/error.h"

namespace insomnia::city {
namespace {

#if !defined(__GLIBCXX__)
#define INSOMNIA_SKIP_GOLDENS() \
  GTEST_SKIP() << "golden values assume libstdc++ distribution algorithms"
#else
#define INSOMNIA_SKIP_GOLDENS() (void)0
#endif

CityConfig tiny_city(int neighbourhoods) {
  NeighbourhoodJitter jitter;
  jitter.gateway_count_spread = 0.2;
  jitter.client_density_spread = 0.2;
  jitter.backhaul_sigma = 0.15;
  jitter.diurnal_phase_spread = 3600.0;
  CityConfig config;
  config.neighbourhoods = neighbourhoods;
  config.seed = 2026;
  config.mix = {{"tiny-a", 2.0, jitter}, {"tiny-b", 1.0, jitter}};
  return config;
}

TEST(CityRunner, FleetAggregatesAreStructurallySane) {
  const CityMetrics metrics = fold_serially(tiny_city(6), tiny_population());

  EXPECT_EQ(metrics.neighbourhoods(), 6u);
  EXPECT_GT(metrics.total_gateways(), 0);
  EXPECT_GT(metrics.total_clients(), 0);
  EXPECT_GT(metrics.baseline_watts(), 0.0);
  EXPECT_GT(metrics.scheme_watts(), 0.0);
  EXPECT_LT(metrics.scheme_watts(), metrics.baseline_watts());
  EXPECT_GT(metrics.savings_fraction(), 0.0);
  EXPECT_LT(metrics.savings_fraction(), 1.0);
  EXPECT_GE(metrics.isp_share_of_savings(), 0.0);
  EXPECT_LE(metrics.isp_share_of_savings(), 1.0);
  EXPECT_GT(metrics.wake_events(), 0);
  EXPECT_GE(metrics.peak_online_gateways(), 0.0);
  EXPECT_LE(metrics.peak_online_gateways(),
            static_cast<double>(metrics.total_gateways()));
  EXPECT_EQ(metrics.neighbourhood_savings().count(), 6u);
  EXPECT_GT(metrics.savings_ci95_halfwidth(), 0.0);

  // Slices partition the fleet.
  std::size_t neighbourhoods = 0;
  long gateways = 0;
  double baseline = 0.0;
  for (const PresetAggregate& slice : metrics.per_preset()) {
    neighbourhoods += slice.neighbourhoods;
    gateways += slice.gateways;
    baseline += slice.baseline_watts;
  }
  ASSERT_EQ(metrics.per_preset().size(), 2u);
  EXPECT_EQ(metrics.per_preset()[0].preset, "tiny-a");
  EXPECT_EQ(neighbourhoods, 6u);
  EXPECT_EQ(gateways, metrics.total_gateways());
  EXPECT_NEAR(baseline, metrics.baseline_watts(), 1e-9);
}

TEST(CityRunner, SimulateNeighbourhoodMatchesTheFoldedMetrics) {
  const CityConfig config = tiny_city(3);
  const auto presets = tiny_population();
  const CityMetrics folded = fold_serially(config, presets);

  CityMetrics refolded(std::vector<std::string>{"tiny-a", "tiny-b"});
  for (std::size_t i = 0; i < 3; ++i) {
    refolded.add(simulate_neighbourhood(config, presets, i));
  }
  EXPECT_EQ(refolded.total_gateways(), folded.total_gateways());
  EXPECT_EQ(refolded.baseline_watts(), folded.baseline_watts());
  EXPECT_EQ(refolded.scheme_watts(), folded.scheme_watts());
  EXPECT_EQ(refolded.wake_events(), folded.wake_events());
}

TEST(CityRunner, RegistryEntryPointRejectsUnknownPresets) {
  CityConfig config = tiny_city(2);  // names not in the registry
  EXPECT_THROW(resolve_mix(config), util::InvalidArgument);
  config.neighbourhoods = 0;
  EXPECT_THROW(resolve_mix(config, tiny_population()), util::InvalidArgument);
}

// Locks the pinned-seed small-city aggregates: any change to the sampler's
// draw order, the runner's substream salts, scheme wiring, or the fold
// arithmetic shifts these numbers. Regenerate by printing the fields of
// fold_serially(tiny_city(4), tiny_population()) on libstdc++.
TEST(CityRunner, PinnedSeedGoldenAggregates) {
  const CityMetrics metrics = fold_serially(tiny_city(4), tiny_population());

  EXPECT_EQ(metrics.neighbourhoods(), 4u);

  INSOMNIA_SKIP_GOLDENS();

  EXPECT_EQ(metrics.total_gateways(), 29);
  EXPECT_EQ(metrics.total_clients(), 144);
  EXPECT_EQ(metrics.wake_events(), 254);
  EXPECT_DOUBLE_EQ(metrics.baseline_watts(), 1989.0);
  EXPECT_DOUBLE_EQ(metrics.scheme_watts(), 713.33473547834092);
  EXPECT_DOUBLE_EQ(metrics.savings_fraction(), 0.64136011288167882);
  EXPECT_DOUBLE_EQ(metrics.isp_share_of_savings(), 0.75793908434310842);
  EXPECT_DOUBLE_EQ(metrics.peak_online_gateways(), 10.827823445198296);
  // n = 4 neighbourhoods: the half-width uses the Student-t critical value
  // for 3 degrees of freedom (3.182) instead of the normal 1.96 the seed
  // used — same stddev, wider (honest) interval. Old pinned value with
  // z = 1.96 was 0.049395042564443215; this is that * 3.182 / 1.96.
  EXPECT_DOUBLE_EQ(metrics.savings_ci95_halfwidth(),
                   0.049395042564443215 / 1.96 * 3.182);
  ASSERT_EQ(metrics.per_preset().size(), 2u);
  EXPECT_EQ(metrics.per_preset()[0].neighbourhoods, 2u);
  EXPECT_EQ(metrics.per_preset()[1].neighbourhoods, 2u);
  EXPECT_DOUBLE_EQ(metrics.per_preset()[0].savings_fraction(), 0.60674698795365933);
  EXPECT_DOUBLE_EQ(metrics.per_preset()[1].savings_fraction(), 0.68133583462953207);
}

}  // namespace
}  // namespace insomnia::city
