// Day-level fluid-engine twin gate. One full simulated day per scenario
// preset x scheme runs through core::AccessRuntime twice: on the production
// engine (the runtime's default) and on the reference oracle, substituted
// through the runtime's network-factory seam. Every day-level product must
// match bit for bit: dispatched events, user and ISP energy, per-flow
// completion times (NaN for flows that never finished), per-gateway online
// time, and the online-gateway and online-card series.
// test_flow_differential holds the engines equal flow by flow on random
// scenarios; this closes the loop on the day-scale workload every figure
// is built from.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/runtime.h"
#include "core/scenario_presets.h"
#include "core/scheme_registry.h"
#include "sim/random.h"
#include "stats/timeseries.h"
#include "support/fluid_engines.h"
#include "topology/access_topology.h"
#include "trace/synthetic_crawdad.h"

namespace insomnia::core {
namespace {

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

/// Index of the first bitwise difference between `a` and `b` (the shorter
/// length when one is a prefix of the other), or -1 when they are identical.
/// Bitwise, so NaN equals NaN and 0.0 differs from -0.0.
long first_divergence(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (bits(a[i]) != bits(b[i])) return static_cast<long>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<long>(common);
}

/// A step series flattened to (change time, value from then on) pairs.
std::vector<double> flatten(const stats::StepSeries& series) {
  std::vector<double> times;
  series.append_change_times(times);
  std::vector<double> out;
  for (const double t : times) {
    out.push_back(t);
    out.push_back(series.value_at(t));
  }
  return out;
}

/// run_scheme's wiring (the scheme's fabric, a fresh policy, the day seed)
/// with the fluid engine chosen by `make_network`; null is production's.
RunMetrics run_day(const ScenarioConfig& scenario, const topo::AccessTopology& topology,
                   const trace::FlowTrace& flows, const SchemeSpec& scheme, std::uint64_t seed,
                   AccessRuntime::NetworkFactory make_network) {
  ScenarioConfig configured = scenario;
  configured.dslam.mode = scheme.switch_mode;
  const std::unique_ptr<Policy> policy = scheme.make_policy(configured);
  return AccessRuntime(configured, topology, flows, *policy, sim::Random(seed), make_network)
      .run();
}

class DayTwin : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(DayTwin, ReferenceEngineReproducesTheProductionDay) {
  const std::string& preset = std::get<0>(GetParam());
  const std::string& scheme_name = std::get<1>(GetParam());
  const ScenarioConfig& scenario = find_scenario_preset(preset).scenario;
  const SchemeSpec& scheme = find_scheme(scheme_name);

  // Engine::run's derivations for run 0 of seed 42.
  const std::uint64_t seed = 42;
  sim::Random topo_rng(sim::Random::substream_seed(seed, 0, 7));
  const topo::AccessTopology topology =
      topo::make_overlap_topology(scenario.client_count, scenario.degrees, topo_rng);
  sim::Random trace_rng(sim::Random::substream_seed(seed, 0, 1));
  const trace::FlowTrace flows =
      trace::SyntheticCrawdadGenerator(scenario.traffic).generate(trace_rng);
  const std::uint64_t day_seed = sim::Random::substream_seed(seed, 0, 100);

  const RunMetrics production = run_day(scenario, topology, flows, scheme, day_seed, nullptr);
  const RunMetrics reference =
      run_day(scenario, topology, flows, scheme, day_seed, &flow::make_reference_network);

  ASSERT_GT(production.executed_events, 0u);
  EXPECT_EQ(reference.executed_events, production.executed_events);
  EXPECT_EQ(bits(reference.user_energy()), bits(production.user_energy()))
      << reference.user_energy() << " vs " << production.user_energy();
  EXPECT_EQ(bits(reference.isp_energy()), bits(production.isp_energy()))
      << reference.isp_energy() << " vs " << production.isp_energy();
  EXPECT_EQ(first_divergence(reference.completion_time, production.completion_time), -1)
      << "completion_time";
  EXPECT_EQ(first_divergence(reference.gateway_online_time, production.gateway_online_time),
            -1)
      << "gateway_online_time";
  EXPECT_EQ(first_divergence(flatten(reference.online_gateways),
                             flatten(production.online_gateways)),
            -1)
      << "online_gateways";
  EXPECT_EQ(first_divergence(flatten(reference.online_cards), flatten(production.online_cards)),
            -1)
      << "online_cards";
}

std::vector<std::string> preset_names() {
  std::vector<std::string> names;
  for (const ScenarioPreset& preset : scenario_presets()) names.push_back(preset.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    EveryPresetBySchemes, DayTwin,
    ::testing::Combine(::testing::ValuesIn(preset_names()),
                       ::testing::Values("soi", "bh2-kswitch", "optimal", "multilevel-doze")),
    [](const ::testing::TestParamInfo<DayTwin::ParamType>& info) {
      std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace insomnia::core
