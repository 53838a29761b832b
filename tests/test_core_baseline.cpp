// The traffic-free no-sleep baseline (core::run_no_sleep_baseline) against
// the simulated one it replaces in every energy-only paired day: the
// built-in "no-sleep" scheme replaying the full trace. Power draw depends on
// power state, not load, so the two must agree bit for bit — every energy
// bin, the online-gateway and online-card series, and per-gateway online
// time — on every preset, on a seeded sweep of jittered city
// neighbourhoods (including DSLAMs whose random wiring leaves a line card
// dark), and over the partial spans an interrupted live run covers.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "city/city_config.h"
#include "city/neighbourhood_sampler.h"
#include "core/home_policy.h"
#include "core/metrics.h"
#include "core/runtime.h"
#include "core/scenario_presets.h"
#include "core/scheme_registry.h"
#include "power/device_power.h"
#include "sim/random.h"
#include "topology/access_topology.h"
#include "trace/synthetic_crawdad.h"
#include "util/error.h"

namespace insomnia::core {
namespace {

constexpr std::size_t kBins = 24;

void expect_same_series(const stats::StepSeries& closed, const stats::StepSeries& simulated,
                        const std::string& what) {
  std::vector<double> closed_times;
  std::vector<double> simulated_times;
  closed.append_change_times(closed_times);
  simulated.append_change_times(simulated_times);
  ASSERT_EQ(closed_times, simulated_times) << what;
  for (double t : closed_times) {
    EXPECT_EQ(closed.value_at(t), simulated.value_at(t)) << what << " at t=" << t;
  }
}

// Bit-for-bit equality of everything an energy-only consumer reads.
void expect_same_baseline(const RunMetrics& closed, const RunMetrics& simulated,
                          const std::string& where) {
  ASSERT_EQ(closed.duration, simulated.duration) << where;
  const double width = closed.duration / static_cast<double>(kBins);
  for (std::size_t i = 0; i < kBins; ++i) {
    const double lo = width * static_cast<double>(i);
    const double hi = (i + 1 == kBins) ? closed.duration : lo + width;
    EXPECT_EQ(closed.user_power.integral(lo, hi), simulated.user_power.integral(lo, hi))
        << where << " user bin " << i;
    EXPECT_EQ(closed.isp_power.integral(lo, hi), simulated.isp_power.integral(lo, hi))
        << where << " isp bin " << i;
  }
  EXPECT_EQ(closed.user_energy(), simulated.user_energy()) << where;
  EXPECT_EQ(closed.isp_energy(), simulated.isp_energy()) << where;
  expect_same_series(closed.online_gateways, simulated.online_gateways,
                     where + " online_gateways");
  expect_same_series(closed.online_cards, simulated.online_cards, where + " online_cards");
  EXPECT_EQ(closed.gateway_online_time, simulated.gateway_online_time) << where;
}

topo::AccessTopology make_topology(const ScenarioConfig& scenario, std::uint64_t seed) {
  sim::Random rng(sim::Random::substream_seed(seed, 0, 7));
  return topo::make_overlap_topology(scenario.client_count, scenario.degrees, rng);
}

trace::FlowTrace make_trace(const ScenarioConfig& scenario, std::uint64_t seed) {
  sim::Random rng(sim::Random::substream_seed(seed, 0, 1));
  return trace::SyntheticCrawdadGenerator(scenario.traffic).generate(rng);
}

TEST(NoSleepBaseline, MatchesTheSimulatedBaselineOnEveryPreset) {
  for (const ScenarioPreset& preset : scenario_presets()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const ScenarioConfig& scenario = preset.scenario;
      const topo::AccessTopology topology = make_topology(scenario, seed);
      const trace::FlowTrace flows = make_trace(scenario, seed);
      const std::uint64_t baseline_seed = sim::Random::substream_seed(seed, 0, 2);
      const RunMetrics simulated =
          run_scheme(scenario, topology, flows, "no-sleep", baseline_seed);
      const RunMetrics closed =
          run_no_sleep_baseline(scenario, topology, baseline_seed, scenario.duration);
      expect_same_baseline(closed, simulated,
                           preset.name + " seed " + std::to_string(seed));
      EXPECT_EQ(closed.executed_events, 0u) << preset.name;
      EXPECT_GT(simulated.executed_events, 0u) << preset.name;
    }
  }
}

ScenarioPreset small_preset(const std::string& name, int clients, int gateways,
                            int line_cards, int ports_per_card) {
  ScenarioPreset preset;
  preset.name = name;
  preset.summary = name;
  ScenarioConfig& s = preset.scenario;
  s.client_count = clients;
  s.gateway_count = gateways;
  s.degrees.node_count = gateways;
  s.degrees.mean_degree = 3.0;
  s.traffic.client_count = clients;
  s.dslam.line_cards = line_cards;
  s.dslam.ports_per_card = ports_per_card;
  return preset;
}

TEST(NoSleepBaseline, MatchesTheSimulatedBaselineOnJitteredNeighbourhoods) {
  city::NeighbourhoodJitter jitter;
  jitter.gateway_count_spread = 0.4;
  jitter.client_density_spread = 0.3;
  jitter.backhaul_sigma = 0.2;
  jitter.diurnal_phase_spread = 3.0 * 3600.0;
  city::CityConfig config;
  config.seed = 2011;
  // Port-rich DSLAMs (few gateways on many ports) leave cards dark under
  // the fixed random wiring; the port-tight one fills every card.
  config.mix = {{"port-rich", 2.0, jitter}, {"port-tight", 1.0, jitter},
                {"mid", 1.0, jitter}};
  const std::vector<ScenarioPreset> presets = {
      small_preset("port-rich", 24, 5, 4, 6), small_preset("port-tight", 32, 8, 4, 2),
      small_preset("mid", 40, 10, 4, 4)};

  constexpr std::size_t kNeighbourhoods = 60;
  int dark_card_days = 0;
  for (std::size_t index = 0; index < kNeighbourhoods; ++index) {
    const ScenarioConfig scenario =
        city::sample_neighbourhood(config, presets, index).scenario;
    const std::uint64_t seed = config.seed + index;
    const topo::AccessTopology topology = make_topology(scenario, seed);
    const trace::FlowTrace flows = make_trace(scenario, seed);
    const std::uint64_t baseline_seed = sim::Random::substream_seed(seed, index, 14);
    const RunMetrics simulated =
        run_scheme(scenario, topology, flows, "no-sleep", baseline_seed);
    const RunMetrics closed =
        run_no_sleep_baseline(scenario, topology, baseline_seed, scenario.duration);
    expect_same_baseline(closed, simulated, "neighbourhood " + std::to_string(index));
    if (closed.online_cards.value_at(0.0) < scenario.dslam.line_cards) ++dark_card_days;
  }
  // The sweep must actually reach the wiring the shortcut could get wrong.
  EXPECT_GT(dark_card_days, 0);
  EXPECT_LT(dark_card_days, static_cast<int>(kNeighbourhoods));
}

// A simulated baseline for an interrupted live day: a live-mode no-sleep
// runtime fed the records that arrived before `covered`, drained, and
// normalised to the covered span.
RunMetrics live_no_sleep_day(const ScenarioConfig& scenario,
                             const topo::AccessTopology& topology,
                             const trace::FlowTrace& flows, std::uint64_t seed,
                             double covered) {
  NoSleepPolicy policy;
  AccessRuntime runtime(scenario, topology, policy, sim::Random(seed),
                        AccessRuntime::LiveMode{true});
  std::size_t count = 0;
  while (count < flows.size() && flows[count].start_time < covered) ++count;
  runtime.append_live_arrivals(flows.data(), count);
  runtime.begin_live();
  runtime.finish_live_input();
  EXPECT_EQ(runtime.step_live(covered + scenario.drain_time),
            AccessRuntime::StepResult::kReachedTime);
  return runtime.finish_live(covered);
}

TEST(NoSleepBaseline, MatchesAnInterruptedLiveBaselineOverPartialSpans) {
  const ScenarioConfig scenario = find_scenario_preset("paper-default").scenario;
  const std::uint64_t seed = 7;
  const topo::AccessTopology topology = make_topology(scenario, seed);
  const trace::FlowTrace flows = make_trace(scenario, seed);
  const std::uint64_t baseline_seed = sim::Random::substream_seed(seed, 0, 2);
  for (double covered : {1e-9, 1.0, 3600.5, 0.37 * scenario.duration,
                         scenario.duration - 1.0, scenario.duration}) {
    const RunMetrics live = live_no_sleep_day(scenario, topology, flows, baseline_seed, covered);
    const RunMetrics closed = run_no_sleep_baseline(scenario, topology, baseline_seed, covered);
    expect_same_baseline(closed, live, "covered " + std::to_string(covered));
  }
}

TEST(NoSleepBaseline, PaperDefaultDrawsTheSimulatedHouseholdsAndConnectedLines) {
  // 40 households at 14 W (9 W gateway + 5 W router), 40 connected modems
  // at 1 W, 4 line cards at 98 W, a 21 W shelf: 1013 W. The paper's §5.1
  // device inventory (power::no_sleep_watts) counts 9 W gateways and all 48
  // ports instead, and is not the simulated baseline.
  const ScenarioConfig scenario = find_scenario_preset("paper-default").scenario;
  const topo::AccessTopology topology = make_topology(scenario, 1);
  const RunMetrics closed = run_no_sleep_baseline(scenario, topology, 1, scenario.duration);
  EXPECT_EQ(closed.user_power.value_at(0.0) + closed.isp_power.value_at(0.0), 1013.0);
  EXPECT_EQ(closed.user_energy() + closed.isp_energy(), 1013.0 * scenario.duration);
  EXPECT_EQ(power::no_sleep_watts(scenario.power, scenario.gateway_count,
                                  scenario.dslam.line_cards, scenario.dslam_ports()),
            821.0);
}

TEST(NoSleepBaseline, CompletionTimeComparisonRejectsTheTrafficFreeBaseline) {
  // The baseline replays no flows, so it has no completion times: Fig. 9a
  // must keep simulating its baseline, and a misuse fails loudly.
  const ScenarioConfig scenario = small_preset("small", 48, 8, 4, 2).scenario;
  const topo::AccessTopology topology = make_topology(scenario, 3);
  const trace::FlowTrace flows = make_trace(scenario, 3);
  ASSERT_FALSE(flows.empty());
  const RunMetrics metrics = run_scheme(scenario, topology, flows, "soi", 100);
  const RunMetrics baseline = run_no_sleep_baseline(scenario, topology, 2, scenario.duration);
  EXPECT_TRUE(baseline.completion_time.empty());
  EXPECT_THROW(completion_time_increase(metrics, baseline), util::InvalidArgument);
}

}  // namespace
}  // namespace insomnia::core
