// Tests of the figure-level experiment drivers on scaled-down scenarios:
// aggregation plumbing (paired runs, energy-weighted series), the density
// sweep, and the testbed emulation.
#include <algorithm>
#include <cstdlib>

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/testbed.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/error.h"

namespace insomnia::core {
namespace {

MainExperimentConfig small_config() {
  MainExperimentConfig config;
  config.scenario.client_count = 48;
  config.scenario.gateway_count = 8;
  config.scenario.degrees.node_count = 8;
  config.scenario.degrees.mean_degree = 4.0;
  config.scenario.traffic.client_count = 48;
  config.scenario.dslam.line_cards = 4;
  config.scenario.dslam.ports_per_card = 2;
  config.runs = 2;
  config.bins = 12;
  config.schemes = {"soi", "bh2-kswitch", "optimal"};
  return config;
}

class MainExperimentFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    result_ = new MainExperimentResult(run_main_experiment(small_config()));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static MainExperimentResult* result_;
};

MainExperimentResult* MainExperimentFixture::result_ = nullptr;

TEST_F(MainExperimentFixture, OneOutcomePerScheme) {
  EXPECT_EQ(result_->schemes.size(), 3u);
  EXPECT_NO_THROW(result_->outcome("soi"));
  EXPECT_NO_THROW(result_->outcome("optimal"));
  EXPECT_THROW(result_->outcome("no-sleep"), util::InvalidArgument);
}

TEST_F(MainExperimentFixture, SeriesHaveRequestedResolution) {
  for (const SchemeOutcome& outcome : result_->schemes) {
    EXPECT_EQ(outcome.savings.size(), 12u);
    EXPECT_EQ(outcome.isp_share.size(), 12u);
    EXPECT_EQ(outcome.online_gateways.size(), 12u);
    EXPECT_EQ(outcome.online_cards.size(), 12u);
  }
}

TEST_F(MainExperimentFixture, SavingsAreFractions) {
  for (const SchemeOutcome& outcome : result_->schemes) {
    EXPECT_GT(outcome.day_savings, 0.0);
    EXPECT_LT(outcome.day_savings, 1.0);
    for (double v : outcome.savings) {
      EXPECT_GT(v, -0.05);
      EXPECT_LT(v, 1.0);
    }
  }
}

TEST_F(MainExperimentFixture, OptimalDominates) {
  EXPECT_GT(result_->outcome("optimal").day_savings,
            result_->outcome("bh2-kswitch").day_savings);
  EXPECT_GT(result_->outcome("bh2-kswitch").day_savings,
            result_->outcome("soi").day_savings);
}

TEST_F(MainExperimentFixture, FairnessSamplesOnlyForBh2) {
  EXPECT_TRUE(result_->outcome("soi").online_time_variation.empty());
  // 2 runs x 8 gateways pooled.
  EXPECT_EQ(result_->outcome("bh2-kswitch").online_time_variation.size(), 16u);
}

TEST_F(MainExperimentFixture, FctSamplesPresent) {
  EXPECT_FALSE(result_->outcome("soi").fct_increase.empty());
  EXPECT_FALSE(result_->outcome("bh2-kswitch").fct_increase.empty());
}

TEST_F(MainExperimentFixture, CountersAveraged) {
  EXPECT_GT(result_->outcome("soi").wake_events, 0.0);
  EXPECT_GT(result_->outcome("bh2-kswitch").bh2_moves, 0.0);
  EXPECT_DOUBLE_EQ(result_->outcome("optimal").wake_events, 0.0);
}

TEST(MainExperiment, RequiresSoiBeforeBh2ForFairness) {
  // The misordered list fails while the schemes are resolved, before any day
  // is simulated ("day.events" takes one sample per simulated day).
  obs::set_enabled(true);
  obs::Registry::global().reset_values();
  MainExperimentConfig config = small_config();
  config.runs = 1;
  config.schemes = {"bh2-kswitch", "soi"};
  EXPECT_THROW(run_main_experiment(config), util::InvalidState);
  EXPECT_EQ(obs::histogram("day.events").snapshot().count, 0u);
}

TEST(MainExperiment, Validation) {
  MainExperimentConfig config = small_config();
  config.runs = 0;
  EXPECT_THROW(run_main_experiment(config), util::InvalidArgument);
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
