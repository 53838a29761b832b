#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "city/city_metrics.h"
#include "util/error.h"

namespace insomnia::city {
namespace {

/// A day where the baseline draws (user_w + isp_w) watts flat and the scheme
/// keeps `keep` of each side — savings fraction is exactly 1 - keep.
NeighbourhoodOutcome outcome(std::size_t mix_index, double user_w, double isp_w,
                             double keep, int gateways = 10, int clients = 60) {
  const double day = 86400.0;
  NeighbourhoodOutcome o;
  o.mix_index = mix_index;
  o.gateways = gateways;
  o.clients = clients;
  o.duration = day;
  o.baseline_user_energy = user_w * day;
  o.baseline_isp_energy = isp_w * day;
  o.scheme_user_energy = keep * user_w * day;
  o.scheme_isp_energy = keep * isp_w * day;
  o.peak_online_gateways = 3.0;
  o.wake_events = 40;
  return o;
}

TEST(CityMetrics, OutcomeSavingsFraction) {
  EXPECT_DOUBLE_EQ(outcome(0, 300.0, 100.0, 0.25).savings_fraction(), 0.75);
  NeighbourhoodOutcome empty;
  EXPECT_DOUBLE_EQ(empty.savings_fraction(), 0.0);
}

TEST(CityMetrics, StreamsTotalsAndSplits) {
  CityMetrics metrics({"a", "b"});
  metrics.add(outcome(0, 300.0, 100.0, 0.25));  // 400 W -> 100 W, saves 75 %
  metrics.add(outcome(1, 100.0, 100.0, 0.75));  // 200 W -> 150 W, saves 25 %

  EXPECT_EQ(metrics.neighbourhoods(), 2u);
  EXPECT_EQ(metrics.total_gateways(), 20);
  EXPECT_EQ(metrics.total_clients(), 120);
  EXPECT_DOUBLE_EQ(metrics.baseline_watts(), 600.0);
  EXPECT_DOUBLE_EQ(metrics.scheme_watts(), 250.0);
  // Energy-weighted: 1 - 250/600.
  EXPECT_DOUBLE_EQ(metrics.savings_fraction(), 1.0 - 250.0 / 600.0);
  // Saved: user 225 + 25 = 250, ISP 75 + 25 = 100 -> share 100/350.
  EXPECT_DOUBLE_EQ(metrics.isp_share_of_savings(), 100.0 / 350.0);
  // Baseline per-gateway draws: user 400/20, ISP 200/20.
  EXPECT_DOUBLE_EQ(metrics.baseline_household_watts_per_gateway(), 20.0);
  EXPECT_DOUBLE_EQ(metrics.baseline_isp_watts_per_gateway(), 10.0);
  EXPECT_DOUBLE_EQ(metrics.peak_online_gateways(), 6.0);
  EXPECT_EQ(metrics.wake_events(), 80);
}

TEST(CityMetrics, AcrossNeighbourhoodConfidenceInterval) {
  CityMetrics metrics({"a"});
  metrics.add(outcome(0, 100.0, 100.0, 0.25));  // saves 0.75
  EXPECT_DOUBLE_EQ(metrics.savings_ci95_halfwidth(), 0.0);  // undefined with n=1
  metrics.add(outcome(0, 100.0, 100.0, 0.75));  // saves 0.25
  const stats::RunningStats& savings = metrics.neighbourhood_savings();
  EXPECT_EQ(savings.count(), 2u);
  EXPECT_DOUBLE_EQ(savings.mean(), 0.5);
  // n = 2 means one degree of freedom: the Student-t critical value, not the
  // normal 1.96 (which would understate the interval ~6.5x at this n).
  EXPECT_DOUBLE_EQ(metrics.savings_ci95_halfwidth(),
                   12.706 * savings.stddev() / std::sqrt(2.0));
}

TEST(CityMetrics, ComponentWattAccessorsMatchTheSplits) {
  CityMetrics metrics({"a"});
  metrics.add(outcome(0, 300.0, 100.0, 0.25));
  metrics.add(outcome(0, 100.0, 100.0, 0.75));
  const FleetTotals& totals = metrics.totals();
  EXPECT_DOUBLE_EQ(totals.baseline_user_watts, 400.0);
  EXPECT_DOUBLE_EQ(totals.baseline_isp_watts, 200.0);
  EXPECT_DOUBLE_EQ(totals.saved_user_watts, 225.0 + 25.0);
  EXPECT_DOUBLE_EQ(totals.saved_isp_watts, 75.0 + 25.0);
  EXPECT_DOUBLE_EQ(totals.baseline_user_watts + totals.baseline_isp_watts,
                   metrics.baseline_watts());
}

TEST(CityMetrics, PerPresetBreakdown) {
  CityMetrics metrics({"a", "b"});
  metrics.add(outcome(0, 300.0, 100.0, 0.25, 8, 50));
  metrics.add(outcome(0, 100.0, 100.0, 0.50, 12, 70));
  metrics.add(outcome(1, 50.0, 50.0, 1.0, 5, 30));  // saves nothing

  const std::vector<PresetAggregate>& slices = metrics.per_preset();
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].preset, "a");
  EXPECT_EQ(slices[0].neighbourhoods, 2u);
  EXPECT_EQ(slices[0].gateways, 20);
  EXPECT_EQ(slices[0].clients, 120);
  EXPECT_DOUBLE_EQ(slices[0].baseline_watts, 600.0);
  EXPECT_DOUBLE_EQ(slices[0].scheme_watts, 200.0);
  EXPECT_DOUBLE_EQ(slices[0].savings_fraction(), 1.0 - 200.0 / 600.0);
  EXPECT_EQ(slices[0].savings.count(), 2u);

  EXPECT_EQ(slices[1].preset, "b");
  EXPECT_EQ(slices[1].neighbourhoods, 1u);
  EXPECT_DOUBLE_EQ(slices[1].savings_fraction(), 0.0);
}

TEST(CityMetrics, EmptyFleetIsAllZeros) {
  const CityMetrics metrics({"a"});
  EXPECT_EQ(metrics.neighbourhoods(), 0u);
  EXPECT_DOUBLE_EQ(metrics.savings_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.isp_share_of_savings(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.baseline_household_watts_per_gateway(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.savings_ci95_halfwidth(), 0.0);
}

TEST(CityMetrics, NoSavingsMeansZeroShareNotNoise) {
  CityMetrics metrics({"a"});
  metrics.add(outcome(0, 100.0, 100.0, 1.0));  // scheme == baseline
  EXPECT_DOUBLE_EQ(metrics.savings_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.isp_share_of_savings(), 0.0);
}

TEST(CityMetrics, RejectsBadOutcomes) {
  CityMetrics metrics({"a"});
  NeighbourhoodOutcome bad = outcome(1, 100.0, 100.0, 0.5);  // index out of range
  EXPECT_THROW(metrics.add(bad), util::InvalidArgument);
  bad = outcome(0, 100.0, 100.0, 0.5);
  bad.duration = 0.0;
  EXPECT_THROW(metrics.add(bad), util::InvalidArgument);
}

}  // namespace
}  // namespace insomnia::city
