// Scheme-registry tests: built-in catalogue, registration round-trip,
// duplicate/unknown-name handling, and end-to-end runs of registered
// schemes.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/home_policy.h"
#include "core/metrics.h"
#include "core/scheme_registry.h"
#include "topology/access_topology.h"
#include "trace/synthetic_crawdad.h"
#include "util/error.h"

namespace insomnia::core {
namespace {

ScenarioConfig small_scenario() {
  ScenarioConfig scenario;
  scenario.client_count = 48;
  scenario.gateway_count = 8;
  scenario.degrees.node_count = 8;
  scenario.degrees.mean_degree = 4.0;
  scenario.traffic.client_count = 48;
  scenario.dslam.line_cards = 4;
  scenario.dslam.ports_per_card = 2;
  return scenario;
}

TEST(SchemeRegistryBuiltins, PaperSchemesFirstInFigureOrder) {
  const auto names = scheme_registry().names();
  ASSERT_GE(names.size(), 10u);
  EXPECT_EQ(names[0], "no-sleep");
  EXPECT_EQ(names[1], "soi");
  EXPECT_EQ(names[2], "soi-kswitch");
  EXPECT_EQ(names[3], "soi-fullswitch");
  EXPECT_EQ(names[4], "bh2-kswitch");
  EXPECT_EQ(names[5], "bh2-nobackup-kswitch");
  EXPECT_EQ(names[6], "bh2-fullswitch");
  EXPECT_EQ(names[7], "optimal");
}

TEST(SchemeRegistryBuiltins, BeyondPaperSchemesRegistered) {
  EXPECT_TRUE(scheme_registry().contains("bh2-jitter"));
  EXPECT_TRUE(scheme_registry().contains("multilevel-doze"));
}

TEST(SchemeRegistryBuiltins, TokensRoundTripThroughTheRegistry) {
  // Each paper scheme resolves under its own token, with the §5.1 fabric.
  const std::vector<std::pair<std::string, dslam::SwitchMode>> paper{
      {"no-sleep", dslam::SwitchMode::kFixed},
      {"soi", dslam::SwitchMode::kFixed},
      {"soi-kswitch", dslam::SwitchMode::kKSwitch},
      {"soi-fullswitch", dslam::SwitchMode::kFullSwitch},
      {"bh2-kswitch", dslam::SwitchMode::kKSwitch},
      {"bh2-nobackup-kswitch", dslam::SwitchMode::kKSwitch},
      {"bh2-fullswitch", dslam::SwitchMode::kFullSwitch},
      {"optimal", dslam::SwitchMode::kFullSwitch}};
  for (const auto& [name, mode] : paper) {
    const SchemeSpec& spec = find_scheme(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_EQ(spec.switch_mode, mode) << name;
  }
}

TEST(SchemeRegistryBuiltins, DisplayNamesMatchThePaper) {
  EXPECT_EQ(find_scheme("no-sleep").display, "No-sleep");
  EXPECT_EQ(find_scheme("bh2-kswitch").display, "BH2 + k-switch");
  EXPECT_EQ(find_scheme("bh2-nobackup-kswitch").display, "BH2 w/o backup + k-switch");
  EXPECT_EQ(find_scheme("optimal").display, "Optimal");
}

TEST(SchemeRegistryBuiltins, FairnessPairingMarksTheBh2Family) {
  EXPECT_FALSE(find_scheme("no-sleep").fairness_vs_soi);
  EXPECT_FALSE(find_scheme("soi").fairness_vs_soi);
  EXPECT_FALSE(find_scheme("optimal").fairness_vs_soi);
  EXPECT_TRUE(find_scheme("bh2-kswitch").fairness_vs_soi);
  EXPECT_TRUE(find_scheme("bh2-nobackup-kswitch").fairness_vs_soi);
  EXPECT_TRUE(find_scheme("bh2-fullswitch").fairness_vs_soi);
}

TEST(SchemeRegistryApi, RegistrationRoundTrip) {
  SchemeRegistry registry;
  SchemeSpec spec;
  spec.name = "always-on";
  spec.display = "Always on";
  spec.summary = "test scheme";
  spec.switch_mode = dslam::SwitchMode::kKSwitch;
  spec.make_policy = [](const ScenarioConfig&) -> std::unique_ptr<Policy> {
    return std::make_unique<NoSleepPolicy>();
  };
  registry.add(spec);

  EXPECT_TRUE(registry.contains("always-on"));
  const SchemeSpec& found = registry.find("always-on");
  EXPECT_EQ(found.display, "Always on");
  EXPECT_EQ(found.switch_mode, dslam::SwitchMode::kKSwitch);
  EXPECT_EQ(registry.names(), std::vector<std::string>{"always-on"});
  EXPECT_NE(found.make_policy(ScenarioConfig{}), nullptr);
}

TEST(SchemeRegistryApi, DuplicateNamesAreRejected) {
  SchemeRegistry registry;
  SchemeSpec spec;
  spec.name = "twice";
  spec.make_policy = [](const ScenarioConfig&) -> std::unique_ptr<Policy> {
    return std::make_unique<NoSleepPolicy>();
  };
  registry.add(spec);
  EXPECT_THROW(registry.add(spec), util::InvalidArgument);
}

TEST(SchemeRegistryApi, InvalidSpecsAreRejected) {
  SchemeRegistry registry;
  SchemeSpec nameless;
  nameless.make_policy = [](const ScenarioConfig&) -> std::unique_ptr<Policy> {
    return std::make_unique<NoSleepPolicy>();
  };
  EXPECT_THROW(registry.add(nameless), util::InvalidArgument);
  SchemeSpec factoryless;
  factoryless.name = "no-factory";
  EXPECT_THROW(registry.add(factoryless), util::InvalidArgument);
}

TEST(SchemeRegistryApi, UnknownNameListsTheValidSchemes) {
  // A CLI typo must say what would have worked (--scheme/--preset parity).
  try {
    find_scheme("bh2-kswich");  // typo'd
    FAIL() << "expected util::InvalidArgument";
  } catch (const util::InvalidArgument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown scheme \"bh2-kswich\""), std::string::npos) << message;
    for (const std::string& name : scheme_registry().names()) {
      EXPECT_NE(message.find(name), std::string::npos) << "missing " << name;
    }
  }
}

TEST(SchemeRegistryRuns, BeyondPaperSchemesRunEndToEnd) {
  const ScenarioConfig scenario = small_scenario();
  sim::Random rng(7);
  const auto topology =
      topo::make_overlap_topology(scenario.client_count, scenario.degrees, rng);
  const auto flows = trace::SyntheticCrawdadGenerator(scenario.traffic).generate(rng);
  const RunMetrics baseline = run_scheme(scenario, topology, flows, "no-sleep", 5);

  for (const std::string name : {"bh2-jitter", "multilevel-doze"}) {
    const RunMetrics m = run_scheme(scenario, topology, flows, name, 5);
    const double savings = savings_fraction(m, baseline, 0.0, m.duration);
    EXPECT_GT(savings, 0.0) << name;
    EXPECT_LT(savings, 1.0) << name;
    const auto bins = m.online_gateways.binned_means(0.0, m.duration, 24);
    for (const double v : bins) {
      EXPECT_GE(v, 0.0) << name;
      EXPECT_LE(v, scenario.gateway_count) << name;
    }
  }
}

TEST(SchemeRegistryRuns, JitteredThresholdsChangeBehaviourButStayDeterministic) {
  const ScenarioConfig scenario = small_scenario();
  sim::Random rng(13);
  const auto topology =
      topo::make_overlap_topology(scenario.client_count, scenario.degrees, rng);
  const auto flows = trace::SyntheticCrawdadGenerator(scenario.traffic).generate(rng);
  const RunMetrics a = run_scheme(scenario, topology, flows, "bh2-jitter", 9);
  const RunMetrics b = run_scheme(scenario, topology, flows, "bh2-jitter", 9);
  EXPECT_EQ(a.user_energy(), b.user_energy());
  EXPECT_EQ(a.bh2_moves, b.bh2_moves);
  // The jittered run must not be a bit-for-bit clone of plain BH2 (the
  // per-terminal draws shift the RNG stream and the thresholds).
  const RunMetrics plain = run_scheme(scenario, topology, flows, "bh2-kswitch", 9);
  EXPECT_TRUE(a.user_energy() != plain.user_energy() ||
              a.executed_events != plain.executed_events || a.bh2_moves != plain.bh2_moves);
}

}  // namespace
}  // namespace insomnia::core
