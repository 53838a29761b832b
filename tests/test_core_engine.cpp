// Engine facade tests: RunSpec validation, bit-identity of Engine::run
// against the run_scheme path for all eight paper schemes on a pinned seed,
// a multi-scheme run's agreement with the one-scheme run and with
// run_scheme, the days each run simulates, thread-count invariance, and the
// RunReport JSON golden (stable key order, locale-independent formatting).
#include <clocale>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/day_summary.h"
#include "core/engine.h"
#include "core/home_policy.h"
#include "core/metrics.h"
#include "core/scenario_presets.h"
#include "core/scheme_registry.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/random.h"
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

RunSpec small_spec(const std::string& scheme) {
  RunSpec spec;
  spec.scenario = small_scenario();
  spec.scheme = scheme;
  spec.seed = 42;
  spec.runs = 2;
  spec.bins = 8;
  return spec;
}

TEST(EngineValidation, UnknownSchemeThrowsWithTheValidNames) {
  RunSpec spec = small_spec("not-a-scheme");
  try {
    Engine().run(spec);
    FAIL() << "expected util::InvalidArgument";
  } catch (const util::InvalidArgument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown scheme \"not-a-scheme\""), std::string::npos) << message;
    EXPECT_NE(message.find("bh2-kswitch"), std::string::npos) << message;
    EXPECT_NE(message.find("multilevel-doze"), std::string::npos) << message;
  }
}

TEST(EngineValidation, UnknownPresetThrowsWithTheValidNames) {
  RunSpec spec;
  spec.preset = "not-a-preset";
  try {
    Engine().run(spec);
    FAIL() << "expected util::InvalidArgument";
  } catch (const util::InvalidArgument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown scenario preset"), std::string::npos) << message;
    EXPECT_NE(message.find("paper-default"), std::string::npos) << message;
  }
}

TEST(EngineValidation, RejectsConflictingScenarioSources) {
  RunSpec spec = small_spec("soi");
  spec.preset = "paper-default";  // and an inline scenario: ambiguous
  EXPECT_THROW(Engine().run(spec), util::InvalidArgument);
}

TEST(EngineValidation, RejectsDegenerateSpecs) {
  RunSpec runs = small_spec("soi");
  runs.runs = 0;
  EXPECT_THROW(Engine().run(runs), util::InvalidArgument);
  RunSpec bins = small_spec("soi");
  bins.bins = 0;
  EXPECT_THROW(Engine().run(bins), util::InvalidArgument);
  RunSpec window = small_spec("soi");
  window.peak_start = window.peak_end;
  EXPECT_THROW(Engine().run(window), util::InvalidArgument);
}

TEST(EngineRun, BitIdenticalToRunSchemeForAllPaperSchemes) {
  // The acceptance gate of the API redesign: for every paper scheme the
  // Engine's per-day numbers equal the classic run_scheme path exactly —
  // same topology substream (seed, 0, 7), per-run trace (seed, r, 1),
  // baseline (seed, r, 2) and scheme (seed, r, 100) derivations.
  const ScenarioConfig scenario = small_scenario();
  const std::uint64_t seed = 42;
  sim::Random topo_rng(sim::Random::substream_seed(seed, 0, 7));
  const auto topology =
      topo::make_overlap_topology(scenario.client_count, scenario.degrees, topo_rng);
  const trace::SyntheticCrawdadGenerator generator(scenario.traffic);

  for (const std::string scheme :
       {"no-sleep", "soi", "soi-kswitch", "soi-fullswitch", "bh2-kswitch",
        "bh2-nobackup-kswitch", "bh2-fullswitch", "optimal"}) {
    const RunReport report = Engine().run(small_spec(scheme));
    ASSERT_EQ(report.days.size(), 2u) << scheme;

    for (int run = 0; run < 2; ++run) {
      sim::Random trace_rng(sim::Random::substream_seed(seed, run, 1));
      const trace::FlowTrace flows = generator.generate(trace_rng);
      const RunMetrics baseline = run_scheme(scenario, topology, flows, "no-sleep",
                                             sim::Random::substream_seed(seed, run, 2));
      const RunMetrics metrics = run_scheme(scenario, topology, flows, scheme,
                                            sim::Random::substream_seed(seed, run, 100));
      const EngineDay& day = report.days[static_cast<std::size_t>(run)];
      EXPECT_EQ(day.baseline_user_energy, baseline.user_energy()) << scheme;
      EXPECT_EQ(day.baseline_isp_energy, baseline.isp_energy()) << scheme;
      EXPECT_EQ(day.user_energy, metrics.user_energy()) << scheme;
      EXPECT_EQ(day.isp_energy, metrics.isp_energy()) << scheme;
      EXPECT_EQ(day.wake_events, metrics.gateway_wake_events) << scheme;
      EXPECT_EQ(day.bh2_moves, metrics.bh2_moves) << scheme;
      EXPECT_EQ(day.bh2_home_returns, metrics.bh2_home_returns) << scheme;
      EXPECT_EQ(day.executed_events, metrics.executed_events) << scheme;
      EXPECT_EQ(day.flows, flows.size()) << scheme;
    }
  }
}

// The figure drivers' multi-scheme run and Engine::run(spec) are one code
// path: scheme 0 of a multi-scheme run is the one-scheme report bit for bit
// (JSON and the figure products), and scheme s > 0 is run_scheme over the
// same day from kRunDayKeys.scheme + s.
class EngineSharesExperimentDays
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(EngineSharesExperimentDays, PerDayNumbersAndSeriesAreBitIdentical) {
  const auto& [preset, scheme] = GetParam();
  RunSpec spec;
  spec.preset = preset;
  spec.scheme = scheme;
  spec.seed = 5;
  spec.threads = 1;
  const RunReport single = Engine().run(spec);

  // `scheme` first, then the other parameter schemes but SoI, which only
  // ever leads (fairness-paired schemes must follow it).
  std::vector<std::string> names{scheme};
  for (const char* other : {"bh2-kswitch", "multilevel-doze"}) {
    if (scheme != other) names.push_back(other);
  }
  const std::vector<RunReport> multi = Engine().run(spec, names);
  ASSERT_EQ(multi.size(), names.size());

  EXPECT_EQ(multi[0].to_json(), single.to_json());
  EXPECT_EQ(multi[0].peak_online_cards, single.peak_online_cards);
  EXPECT_EQ(multi[0].isp_share_series, single.isp_share_series);
  EXPECT_EQ(multi[0].online_cards_series, single.online_cards_series);

  const ScenarioConfig& scenario = find_scenario_preset(preset).scenario;
  sim::Random topo_rng(sim::Random::substream_seed(spec.seed, 0, kRunDayKeys.topology));
  const auto topology =
      topo::make_overlap_topology(scenario.client_count, scenario.degrees, topo_rng);
  sim::Random trace_rng(sim::Random::substream_seed(spec.seed, 0, kRunDayKeys.trace));
  const trace::FlowTrace flows =
      trace::SyntheticCrawdadGenerator(scenario.traffic).generate(trace_rng);
  for (std::size_t s = 1; s < names.size(); ++s) {
    const RunMetrics metrics =
        run_scheme(scenario, topology, flows, names[s],
                   sim::Random::substream_seed(spec.seed, 0, kRunDayKeys.scheme + s));
    const EngineDay& day = multi[s].days[0];
    EXPECT_EQ(multi[s].scheme, names[s]);
    EXPECT_EQ(day.user_energy, metrics.user_energy()) << names[s];
    EXPECT_EQ(day.isp_energy, metrics.isp_energy()) << names[s];
    EXPECT_EQ(day.peak_online_gateways,
              metrics.online_gateways.mean(spec.peak_start, spec.peak_end))
        << names[s];
    EXPECT_EQ(day.wake_events, metrics.gateway_wake_events) << names[s];
    EXPECT_EQ(day.bh2_moves, metrics.bh2_moves) << names[s];
    EXPECT_EQ(day.executed_events, metrics.executed_events) << names[s];
    EXPECT_EQ(multi[s].online_gateways_series,
              metrics.online_gateways.binned_means(0.0, metrics.duration, spec.bins))
        << names[s];
  }
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndSchemes, EngineSharesExperimentDays,
    ::testing::Combine(::testing::Values("paper-default", "sparse-rural",
                                         "developing-world"),
                       ::testing::Values("soi", "bh2-kswitch", "multilevel-doze")),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// "day.events" takes one sample per simulated scheme or no-sleep day: k
// schemes over r runs simulate k x r days against the traffic-free baseline,
// and (k + 1) x r when FCTs ask for the no-sleep day over the trace.
TEST(EngineRun, SimulatesTheNoSleepDayOnlyForFct) {
  obs::set_enabled(true);
  RunSpec spec = small_spec("soi");
  spec.runs = 3;
  const std::vector<std::string> schemes{"soi", "bh2-kswitch"};
  for (const bool fct : {false, true}) {
    obs::Registry::global().reset_values();
    spec.fct = fct;
    const std::vector<RunReport> reports = Engine().run(spec, schemes);
    const std::uint64_t days = (schemes.size() + (fct ? 1 : 0)) * 3;
    EXPECT_EQ(obs::histogram("day.events").snapshot().count, days) << "fct " << fct;
    EXPECT_EQ(reports[0].fct_increase.empty(), !fct);
  }
}

TEST(EngineRun, ReportIsIdenticalForAnyThreadCount) {
  RunSpec spec = small_spec("bh2-kswitch");
  spec.runs = 4;
  spec.threads = 1;
  const std::string serial = Engine().run(spec).to_json();
  spec.threads = 4;
  const std::string sharded = Engine().run(spec).to_json();
  EXPECT_EQ(serial, sharded);
}

TEST(EngineRun, PresetResolutionAndAggregates) {
  RunSpec spec;
  spec.scenario = small_scenario();
  spec.scheme = "soi";
  spec.runs = 1;
  const RunReport report = Engine().run(spec);
  EXPECT_EQ(report.preset, "(inline)");
  EXPECT_EQ(report.scheme_display, "SoI");
  EXPECT_EQ(report.clients, 48);
  EXPECT_EQ(report.gateways, 8);
  EXPECT_GT(report.day_savings, 0.0);
  EXPECT_LT(report.day_savings, 1.0);
  EXPECT_EQ(report.savings_series.size(), report.bins);
  EXPECT_EQ(report.online_gateways_series.size(), report.bins);
  // One-run aggregates equal the single day's numbers.
  EXPECT_DOUBLE_EQ(report.day_savings, report.days[0].savings);
  EXPECT_DOUBLE_EQ(report.peak_online_gateways, report.days[0].peak_online_gateways);
}

TEST(EngineRun, OptimalCompletesWhenDemandOutgrowsTheBackhaul) {
  // On the 1 Mbps developing-world plant the users' demand exceeds what the
  // reachable gateways carry at optimal_q, so the capacity-constrained cover
  // is infeasible. Optimal must degrade (unplaced users keep a gateway on)
  // instead of aborting the day.
  RunSpec spec;
  spec.preset = "developing-world";
  spec.scheme = "optimal";
  spec.runs = 1;
  spec.threads = 1;
  const RunReport report = Engine().run(spec);
  ASSERT_EQ(report.days.size(), 1u);
  const EngineDay& day = report.days[0];
  const double energy = day.user_energy + day.isp_energy;
  const double baseline = day.baseline_user_energy + day.baseline_isp_energy;
  EXPECT_TRUE(std::isfinite(energy));
  EXPECT_GT(energy, 0.0);
  EXPECT_LE(energy, baseline);
  EXPECT_GT(day.executed_events, 0u);
}

TEST(EngineRun, ResolvesSchemesInACallerSuppliedRegistry) {
  SchemeRegistry registry;
  SchemeSpec always_on;
  always_on.name = "always-on";
  always_on.display = "Always on";
  always_on.switch_mode = dslam::SwitchMode::kFixed;
  always_on.make_policy = [](const ScenarioConfig&) -> std::unique_ptr<Policy> {
    return std::make_unique<NoSleepPolicy>();
  };
  registry.add(always_on);
  SchemeSpec baseline = always_on;
  baseline.name = "no-sleep";
  baseline.display = "No-sleep";
  registry.add(baseline);

  RunSpec spec = small_spec("always-on");
  spec.runs = 1;
  const RunReport report = Engine(registry).run(spec);
  EXPECT_EQ(report.scheme_display, "Always on");
  // Identical policy to the baseline: zero savings by construction.
  EXPECT_DOUBLE_EQ(report.day_savings, 0.0);
}

TEST(RunReportJson, GoldenDocumentWithStableKeyOrder) {
  RunReport report;
  report.scheme = "soi";
  report.scheme_display = "SoI";
  report.preset = "paper-default";
  report.seed = 1;
  report.runs = 1;
  report.bins = 2;
  report.peak_start = 0.5;
  report.peak_end = 2;
  report.clients = 3;
  report.gateways = 4;
  report.day_savings = 0.25;
  report.day_isp_share = 0.5;
  report.peak_online_gateways = 2;
  report.mean_wake_events = 8;
  report.executed_events = 99;
  report.savings_series = {0.5, 0.25};
  report.online_gateways_series = {2, 4};
  EngineDay day;
  day.baseline_user_energy = 10;
  day.baseline_isp_energy = 6;
  day.user_energy = 8;
  day.isp_energy = 4;
  day.savings = 0.25;
  day.isp_share = 0.5;
  day.peak_online_gateways = 2;
  day.peak_online_cards = 1;
  day.wake_events = 8;
  day.bh2_moves = 0;
  day.bh2_home_returns = 0;
  day.executed_events = 99;
  day.flows = 7;
  report.days = {day};

  const std::string expected =
      "{\"report\":\"engine-run\",\"scheme\":\"soi\",\"scheme_display\":\"SoI\","
      "\"preset\":\"paper-default\",\"trace_file\":\"\",\"seed\":1,\"runs\":1,"
      "\"bins\":2,\"peak_start\":0.5,\"peak_end\":2,\"clients\":3,\"gateways\":4,"
      "\"aggregate\":{\"day_savings\":0.25,\"day_isp_share\":0.5,"
      "\"peak_online_gateways\":2,\"mean_wake_events\":8,\"executed_events\":99},"
      "\"savings_series\":[0.5,0.25],\"online_gateways_series\":[2,4],"
      "\"days\":[{\"baseline_user_energy\":10,\"baseline_isp_energy\":6,"
      "\"user_energy\":8,\"isp_energy\":4,\"savings\":0.25,\"isp_share\":0.5,"
      "\"peak_online_gateways\":2,\"peak_online_cards\":1,\"wake_events\":8,"
      "\"bh2_moves\":0,\"bh2_home_returns\":0,\"executed_events\":99,\"flows\":7}]}";
  EXPECT_EQ(report.to_json(), expected);

  // The golden must survive a comma-decimal global locale (skipped when the
  // locale is not installed).
  const char* previous = std::setlocale(LC_ALL, nullptr);
  const std::string saved = previous != nullptr ? previous : "C";
  if (std::setlocale(LC_ALL, "de_DE.UTF-8") != nullptr ||
      std::setlocale(LC_ALL, "de_DE.utf8") != nullptr) {
    EXPECT_EQ(report.to_json(), expected);
  }
  std::setlocale(LC_ALL, saved.c_str());
}

}  // namespace
}  // namespace insomnia::core
