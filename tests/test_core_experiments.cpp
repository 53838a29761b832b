// Tests of the figure-level experiments on scaled-down scenarios: the
// multi-scheme Engine run the figure drivers make (paired runs,
// energy-weighted series, FCT and fairness samples), the density sweep, and
// the testbed emulation.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/experiments.h"
#include "core/testbed.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/error.h"

namespace insomnia::core {
namespace {

RunSpec small_spec() {
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
  spec.runs = 2;
  spec.bins = 12;
  spec.fct = true;
  return spec;
}

const std::vector<std::string> kSchemes{"soi", "bh2-kswitch", "optimal"};

/// Mean BH2 moves per run.
double mean_moves(const RunReport& report) {
  double total = 0.0;
  for (const EngineDay& day : report.days) total += static_cast<double>(day.bh2_moves);
  return total / static_cast<double>(report.runs);
}

class MainExperimentFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    reports_ = new std::vector<RunReport>(Engine().run(small_spec(), kSchemes));
  }
  static void TearDownTestSuite() {
    delete reports_;
    reports_ = nullptr;
  }
  static const RunReport& report(const std::string& scheme) {
    return find_report(*reports_, scheme);
  }
  static std::vector<RunReport>* reports_;
};

std::vector<RunReport>* MainExperimentFixture::reports_ = nullptr;

TEST_F(MainExperimentFixture, OneOutcomePerScheme) {
  EXPECT_EQ(reports_->size(), 3u);
  EXPECT_NO_THROW(report("soi"));
  EXPECT_NO_THROW(report("optimal"));
  EXPECT_THROW(report("no-sleep"), util::InvalidArgument);
}

TEST_F(MainExperimentFixture, SeriesHaveRequestedResolution) {
  for (const RunReport& r : *reports_) {
    EXPECT_EQ(r.savings_series.size(), 12u);
    EXPECT_EQ(r.isp_share_series.size(), 12u);
    EXPECT_EQ(r.online_gateways_series.size(), 12u);
    EXPECT_EQ(r.online_cards_series.size(), 12u);
  }
}

TEST_F(MainExperimentFixture, SavingsAreFractions) {
  for (const RunReport& r : *reports_) {
    EXPECT_GT(r.day_savings, 0.0);
    EXPECT_LT(r.day_savings, 1.0);
    for (double v : r.savings_series) {
      EXPECT_GT(v, -0.05);
      EXPECT_LT(v, 1.0);
    }
  }
}

TEST_F(MainExperimentFixture, OptimalDominates) {
  EXPECT_GT(report("optimal").day_savings, report("bh2-kswitch").day_savings);
  EXPECT_GT(report("bh2-kswitch").day_savings, report("soi").day_savings);
}

TEST_F(MainExperimentFixture, FairnessSamplesOnlyForBh2) {
  EXPECT_TRUE(report("soi").online_time_variation.empty());
  // 2 runs x 8 gateways pooled.
  EXPECT_EQ(report("bh2-kswitch").online_time_variation.size(), 16u);
}

TEST_F(MainExperimentFixture, FctSamplesPresent) {
  EXPECT_FALSE(report("soi").fct_increase.empty());
  EXPECT_FALSE(report("bh2-kswitch").fct_increase.empty());
}

TEST_F(MainExperimentFixture, CountersAveraged) {
  EXPECT_GT(report("soi").mean_wake_events, 0.0);
  EXPECT_GT(mean_moves(report("bh2-kswitch")), 0.0);
  EXPECT_DOUBLE_EQ(report("optimal").mean_wake_events, 0.0);
}

TEST(MainExperiment, RequiresSoiBeforeBh2ForFairness) {
  // The misordered list fails while the schemes are resolved, before any day
  // is simulated ("day.events" takes one sample per simulated day).
  obs::set_enabled(true);
  obs::Registry::global().reset_values();
  RunSpec spec = small_spec();
  spec.runs = 1;
  EXPECT_THROW(Engine().run(spec, {"bh2-kswitch", "soi"}), util::InvalidState);
  EXPECT_EQ(obs::histogram("day.events").snapshot().count, 0u);
}

TEST(MainExperiment, Validation) {
  RunSpec spec = small_spec();
  spec.runs = 0;
  EXPECT_THROW(Engine().run(spec, kSchemes), util::InvalidArgument);
}

TEST(DensitySweep, MoreNeighboursMeanFewerOnlineGateways) {
  ScenarioConfig scenario;
  scenario.client_count = 48;
  scenario.gateway_count = 8;
  scenario.degrees.node_count = 8;
  scenario.traffic.client_count = 48;
  scenario.dslam.line_cards = 4;
  scenario.dslam.ports_per_card = 2;
  const auto points = run_density_sweep(scenario, {1.0, 4.0, 8.0}, 2, 77);
  ASSERT_EQ(points.size(), 3u);
  // Density 1 = home-only: no aggregation possible.
  EXPECT_GT(points[0].mean_online_gateways, points[1].mean_online_gateways);
  EXPECT_GE(points[1].mean_online_gateways, points[2].mean_online_gateways - 0.5);
  for (const auto& p : points) {
    EXPECT_GT(p.mean_online_gateways, 0.0);
    EXPECT_LE(p.mean_online_gateways, 8.0);
  }
}

TEST(Testbed, Bh2SleepsMoreApsThanSoi) {
  TestbedConfig config;
  config.runs = 2;
  config.base.traffic.client_count = 120;
  config.base.client_count = 120;
  const TestbedResult result = run_testbed_emulation(config);
  EXPECT_EQ(result.soi_online.size(), 30u);
  EXPECT_EQ(result.bh2_online.size(), 30u);
  // Fig. 12's claim: BH2 keeps fewer APs online than SoI throughout.
  EXPECT_LT(result.bh2_mean_online, result.soi_mean_online);
  EXPECT_GT(result.bh2_mean_sleeping, result.soi_mean_sleeping);
  for (double v : result.bh2_online) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 9.0);
  }
}

TEST(RunsFromEnv, ParsesValidValuesAndFallsBackWhenUnset) {
  ::unsetenv("INSOMNIA_RUNS");
  EXPECT_EQ(runs_from_env(5), 5);
  ::setenv("INSOMNIA_RUNS", "7", 1);
  EXPECT_EQ(runs_from_env(5), 7);
  ::setenv("INSOMNIA_RUNS", "1", 1);
  EXPECT_EQ(runs_from_env(5), 1);
  ::setenv("INSOMNIA_RUNS", " 12 ", 1);  // stray whitespace is harmless
  EXPECT_EQ(runs_from_env(5), 12);
  ::unsetenv("INSOMNIA_RUNS");
}

TEST(RunsFromEnv, RejectsInvalidValuesLoudly) {
  // A typo'd override must not silently run a different experiment than the
  // operator asked for — every malformed value is a hard error.
  for (const char* bad : {"junk", "0", "-3", "", "  ", "3.5", "7x", "0x7",
                          "99999999999999999999"}) {
    ::setenv("INSOMNIA_RUNS", bad, 1);
    EXPECT_THROW(runs_from_env(5), util::InvalidArgument) << "value: \"" << bad << "\"";
  }
  ::unsetenv("INSOMNIA_RUNS");
}

}  // namespace
}  // namespace insomnia::core
