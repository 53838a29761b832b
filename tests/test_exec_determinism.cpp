// The load-bearing guarantee of src/exec: sharding an experiment over any
// number of threads yields bit-identical results to the serial path. Every
// comparison here is exact (EXPECT_EQ on doubles), not approximate.
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/experiments.h"

namespace insomnia::core {
namespace {

RunSpec small_spec(int threads) {
  ScenarioConfig scenario;
  scenario.client_count = 48;
  scenario.gateway_count = 8;
  scenario.degrees.node_count = 8;
  scenario.degrees.mean_degree = 4.0;
  scenario.traffic.client_count = 48;
  scenario.dslam.line_cards = 4;
  scenario.dslam.ports_per_card = 2;
  RunSpec spec;
  spec.scenario = scenario;
  spec.runs = 4;  // more runs than some thread counts, fewer than others
  spec.bins = 12;
  spec.fct = true;
  spec.threads = threads;
  return spec;
}

const std::vector<std::string> kSchemes{"soi", "bh2-kswitch"};

void expect_identical(const std::vector<double>& a, const std::vector<double>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << "[" << i << "]";
  }
}

void expect_identical(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  expect_identical(a.savings_series, b.savings_series, "savings");
  expect_identical(a.isp_share_series, b.isp_share_series, "isp_share");
  expect_identical(a.online_gateways_series, b.online_gateways_series, "online_gateways");
  expect_identical(a.online_cards_series, b.online_cards_series, "online_cards");
  EXPECT_EQ(a.day_savings, b.day_savings);
  EXPECT_EQ(a.day_isp_share, b.day_isp_share);
  EXPECT_EQ(a.peak_online_gateways, b.peak_online_gateways);
  EXPECT_EQ(a.peak_online_cards, b.peak_online_cards);
  expect_identical(a.fct_increase, b.fct_increase, "fct_increase");
  expect_identical(a.online_time_variation, b.online_time_variation, "online_time_variation");
  EXPECT_EQ(a.mean_wake_events, b.mean_wake_events);
  // The per-day counters behind the figures' per-run means.
  ASSERT_EQ(a.days.size(), b.days.size());
  for (std::size_t d = 0; d < a.days.size(); ++d) {
    EXPECT_EQ(a.days[d].bh2_moves, b.days[d].bh2_moves) << "day " << d;
    EXPECT_EQ(a.days[d].bh2_home_returns, b.days[d].bh2_home_returns) << "day " << d;
  }
}

TEST(ExecDeterminism, MainExperimentIsBitIdenticalAcrossThreadCounts) {
  const std::vector<RunReport> serial = Engine().run(small_spec(1), kSchemes);
  for (int threads : {2, 3, 8}) {
    const std::vector<RunReport> sharded = Engine().run(small_spec(threads), kSchemes);
    ASSERT_EQ(serial.size(), sharded.size()) << threads << " threads";
    for (std::size_t s = 0; s < serial.size(); ++s) {
      expect_identical(serial[s], sharded[s]);
    }
  }
}

TEST(ExecDeterminism, MainExperimentIsStableAcrossRepeats) {
  const std::vector<RunReport> a = Engine().run(small_spec(4), kSchemes);
  const std::vector<RunReport> b = Engine().run(small_spec(4), kSchemes);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    expect_identical(a[s], b[s]);
  }
}

TEST(ExecDeterminism, DensitySweepIsBitIdenticalAcrossThreadCounts) {
  ScenarioConfig scenario;
  scenario.client_count = 48;
  scenario.gateway_count = 8;
  scenario.degrees.node_count = 8;
  scenario.traffic.client_count = 48;
  scenario.dslam.line_cards = 4;
  scenario.dslam.ports_per_card = 2;
  const std::vector<double> densities{1.0, 4.0, 8.0};

  const auto serial = run_density_sweep(scenario, densities, 2, 77, 1);
  for (int threads : {2, 6}) {
    const auto sharded = run_density_sweep(scenario, densities, 2, 77, threads);
    ASSERT_EQ(serial.size(), sharded.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].mean_available_gateways, sharded[i].mean_available_gateways);
      EXPECT_EQ(serial[i].mean_online_gateways, sharded[i].mean_online_gateways);
    }
  }
}

}  // namespace
}  // namespace insomnia::core
