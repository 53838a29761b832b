// The city layer's load-bearing guarantee, analogous to
// test_exec_determinism: neighbourhood outcomes computed on any number of
// threads fold to aggregates bit-identical to the serial path. Exact
// comparisons (EXPECT_EQ on doubles) throughout.
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "city/city_runner.h"
#include "exec/sweep_runner.h"
#include "support/tiny_population.h"

namespace insomnia::city {
namespace {

CityConfig tiny_city() {
  NeighbourhoodJitter jitter;
  jitter.gateway_count_spread = 0.2;
  jitter.client_density_spread = 0.2;
  jitter.backhaul_sigma = 0.15;
  jitter.diurnal_phase_spread = 3600.0;
  CityConfig config;
  config.neighbourhoods = 5;  // more than some thread counts, fewer than others
  config.seed = 77;
  config.mix = {{"tiny-a", 2.0, jitter}, {"tiny-b", 1.0, jitter}};
  return config;
}

/// The city's neighbourhoods simulated on `threads` workers, then folded.
CityMetrics sharded_fold(int threads) {
  const CityConfig config = tiny_city();
  const std::vector<core::ScenarioPreset> presets = tiny_population();
  exec::SweepRunner runner(threads);
  const std::vector<NeighbourhoodOutcome> outcomes =
      runner.run(static_cast<std::size_t>(config.neighbourhoods), [&](std::size_t index) {
        return simulate_neighbourhood(config, presets, index);
      });
  return fold_city(config, outcomes);
}

void expect_identical(const CityMetrics& a, const CityMetrics& b) {
  EXPECT_EQ(a.neighbourhoods(), b.neighbourhoods());
  EXPECT_EQ(a.total_gateways(), b.total_gateways());
  EXPECT_EQ(a.total_clients(), b.total_clients());
  EXPECT_EQ(a.baseline_watts(), b.baseline_watts());
  EXPECT_EQ(a.scheme_watts(), b.scheme_watts());
  EXPECT_EQ(a.savings_fraction(), b.savings_fraction());
  EXPECT_EQ(a.isp_share_of_savings(), b.isp_share_of_savings());
  EXPECT_EQ(a.baseline_household_watts_per_gateway(),
            b.baseline_household_watts_per_gateway());
  EXPECT_EQ(a.baseline_isp_watts_per_gateway(), b.baseline_isp_watts_per_gateway());
  EXPECT_EQ(a.peak_online_gateways(), b.peak_online_gateways());
  EXPECT_EQ(a.wake_events(), b.wake_events());
  EXPECT_EQ(a.neighbourhood_savings().count(), b.neighbourhood_savings().count());
  EXPECT_EQ(a.neighbourhood_savings().mean(), b.neighbourhood_savings().mean());
  EXPECT_EQ(a.neighbourhood_savings().variance(), b.neighbourhood_savings().variance());
  EXPECT_EQ(a.savings_ci95_halfwidth(), b.savings_ci95_halfwidth());
  ASSERT_EQ(a.per_preset().size(), b.per_preset().size());
  for (std::size_t k = 0; k < a.per_preset().size(); ++k) {
    const PresetAggregate& sa = a.per_preset()[k];
    const PresetAggregate& sb = b.per_preset()[k];
    EXPECT_EQ(sa.preset, sb.preset);
    EXPECT_EQ(sa.neighbourhoods, sb.neighbourhoods);
    EXPECT_EQ(sa.gateways, sb.gateways);
    EXPECT_EQ(sa.clients, sb.clients);
    EXPECT_EQ(sa.baseline_watts, sb.baseline_watts);
    EXPECT_EQ(sa.scheme_watts, sb.scheme_watts);
    EXPECT_EQ(sa.savings.count(), sb.savings.count());
    EXPECT_EQ(sa.savings.mean(), sb.savings.mean());
    EXPECT_EQ(sa.savings.variance(), sb.savings.variance());
  }
}

TEST(CityDeterminism, FleetIsBitIdenticalAcrossThreadCounts) {
  const CityMetrics serial = fold_serially(tiny_city(), tiny_population());
  for (int threads : {1, 2, 3, 8}) expect_identical(serial, sharded_fold(threads));
}

TEST(CityDeterminism, FleetIsStableAcrossRepeats) {
  expect_identical(sharded_fold(4), sharded_fold(4));
}

}  // namespace
}  // namespace insomnia::city
