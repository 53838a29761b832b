// Integration tests of the runtime's gateway state machine, energy
// accounting and wake-up penalty on small hand-built scenarios where every
// number can be computed by hand.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/home_policy.h"
#include "util/error.h"
#include "core/runtime.h"
#include "core/scenario_presets.h"
#include "core/scheme_registry.h"
#include "topology/access_topology.h"
#include "trace/synthetic_crawdad.h"

namespace insomnia::core {
namespace {

/// A 2-gateway, 2-client scenario with fast wake for exact arithmetic.
ScenarioConfig tiny_scenario() {
  ScenarioConfig scenario;
  scenario.client_count = 2;
  scenario.gateway_count = 2;
  scenario.duration = 2000.0;
  scenario.drain_time = 500.0;
  scenario.wake_time = 60.0;
  scenario.idle_timeout = 60.0;
  scenario.dslam.line_cards = 2;
  scenario.dslam.ports_per_card = 1;
  scenario.dslam.switch_size = 2;
  scenario.degrees.node_count = 2;
  scenario.traffic.client_count = 2;
  return scenario;
}

topo::AccessTopology tiny_topology() {
  topo::AccessTopology topology;
  topology.gateway_count = 2;
  topology.home_gateway = {0, 1};
  topology.client_gateways = {{0, 1}, {1, 0}};
  return topology;
}

TEST(Runtime, NoSleepBaselinePowerIsConstant) {
  const ScenarioConfig scenario = tiny_scenario();
  const trace::FlowTrace flows{};
  const RunMetrics m = run_scheme(scenario, tiny_topology(), flows, "no-sleep", 1);
  // 2 households at 14 W each + shelf 21 + 2 cards * 98 + 2 modems * 1.
  const double watts = 2 * 14.0 + 21.0 + 2 * 98.0 + 2 * 1.0;
  EXPECT_NEAR(m.total_energy(), watts * scenario.duration, 1e-6);
  EXPECT_DOUBLE_EQ(m.online_gateways.value_at(1000.0), 2.0);
}

TEST(Runtime, SoiWithNoTrafficSleepsEverything) {
  const ScenarioConfig scenario = tiny_scenario();
  const trace::FlowTrace flows{};
  const RunMetrics m = run_scheme(scenario, tiny_topology(), flows, "soi", 1);
  // Gateways start asleep and never wake: only the shelf burns energy.
  EXPECT_NEAR(m.total_energy(), 21.0 * scenario.duration, 1e-6);
  EXPECT_EQ(m.gateway_wake_events, 0);
}

TEST(Runtime, SoiWakePenaltyStallsTheFirstFlow) {
  const ScenarioConfig scenario = tiny_scenario();
  // 750 kB at 6 Mbps = 1 s of service, arriving at t=100 on a sleeping
  // gateway: FCT = 60 s wake + 1 s service.
  const trace::FlowTrace flows{{100.0, 0, 750000.0}};
  const RunMetrics m = run_scheme(scenario, tiny_topology(), flows, "soi", 1);
  ASSERT_EQ(m.completion_time.size(), 1u);
  EXPECT_NEAR(m.completion_time[0], 61.0, 1e-6);
  EXPECT_EQ(m.gateway_wake_events, 1);
}

TEST(Runtime, SoiGatewaySleepsAfterIdleTimeout) {
  const ScenarioConfig scenario = tiny_scenario();
  const trace::FlowTrace flows{{100.0, 0, 750000.0}};
  const RunMetrics m = run_scheme(scenario, tiny_topology(), flows, "soi", 1);
  // Wake at 100, active at 160, flow done at 161, idle timeout at ~221.
  EXPECT_DOUBLE_EQ(m.online_gateways.value_at(200.0), 1.0);
  EXPECT_DOUBLE_EQ(m.online_gateways.value_at(222.0), 0.0);
  // Online time: from wake (100) to sleep (~221) once, gateway 0 only.
  EXPECT_NEAR(m.gateway_online_time[0], 121.0, 1.0);
  EXPECT_DOUBLE_EQ(m.gateway_online_time[1], 0.0);
}

TEST(Runtime, BackToBackFlowsKeepGatewayUp) {
  const ScenarioConfig scenario = tiny_scenario();
  // Keep-alives every 30 s < 60 s timeout: the gateway must stay up from
  // first wake to the last flow + timeout.
  trace::FlowTrace flows;
  for (int i = 0; i < 20; ++i) flows.push_back({100.0 + 30.0 * i, 0, 300.0});
  const RunMetrics m = run_scheme(scenario, tiny_topology(), flows, "soi", 1);
  EXPECT_EQ(m.gateway_wake_events, 1);  // exactly one wake despite 20 flows
  for (const double fct : m.completion_time) EXPECT_FALSE(std::isnan(fct));
}

TEST(Runtime, NoSleepFlowUnaffected) {
  const ScenarioConfig scenario = tiny_scenario();
  const trace::FlowTrace flows{{100.0, 0, 750000.0}};
  const RunMetrics m = run_scheme(scenario, tiny_topology(), flows, "no-sleep", 1);
  EXPECT_NEAR(m.completion_time[0], 1.0, 1e-6);
}

TEST(Runtime, WakingGatewayDrawsPower) {
  const ScenarioConfig scenario = tiny_scenario();
  const trace::FlowTrace flows{{100.0, 0, 750000.0}};
  const RunMetrics m = run_scheme(scenario, tiny_topology(), flows, "soi", 1);
  // During [100, 160) the household draws full power while serving nothing.
  EXPECT_NEAR(m.user_power.value_at(130.0), 14.0, 1e-9);
  // Its DSLAM modem and card wake with it.
  EXPECT_GT(m.isp_power.value_at(130.0), 21.0 + 98.0 - 1e-9);
}

TEST(Runtime, OptimalServesWithInstantTransitions) {
  const ScenarioConfig scenario = tiny_scenario();
  const trace::FlowTrace flows{{100.0, 0, 750000.0}, {500.0, 1, 750000.0}};
  const RunMetrics m = run_scheme(scenario, tiny_topology(), flows, "optimal", 1);
  // No wake penalty: the fallback powers a gateway instantly.
  EXPECT_NEAR(m.completion_time[0], 1.0, 1e-6);
  EXPECT_NEAR(m.completion_time[1], 1.0, 1e-6);
  EXPECT_EQ(m.gateway_wake_events, 0);
  // Optimal must save energy vs no-sleep here (long idle day).
  const RunMetrics baseline = run_scheme(scenario, tiny_topology(), flows, "no-sleep", 1);
  EXPECT_GT(savings_fraction(m, baseline, 0.0, scenario.duration), 0.5);
}

TEST(Runtime, FlowArrivingDuringWakeWaitsOnlyTheRemainder) {
  const ScenarioConfig scenario = tiny_scenario();
  // First flow wakes the gateway at t=100 (active at 160); second arrives
  // at t=130 and waits 30 s, then both are served at 3 Mbps each.
  const trace::FlowTrace flows{{100.0, 0, 750000.0}, {130.0, 0, 750000.0}};
  const RunMetrics m = run_scheme(scenario, tiny_topology(), flows, "soi", 1);
  EXPECT_EQ(m.gateway_wake_events, 1);
  // Both share 6 Mbps from 160: each needs 2 s at half rate.
  EXPECT_NEAR(m.completion_time[0], 62.0, 1e-6);
  EXPECT_NEAR(m.completion_time[1], 32.0, 1e-6);
}

TEST(Runtime, RejectsMismatchedTopology) {
  const ScenarioConfig scenario = tiny_scenario();
  topo::AccessTopology wrong = tiny_topology();
  wrong.gateway_count = 3;
  NoSleepPolicy policy;
  sim::Random rng(1);
  EXPECT_THROW(AccessRuntime(scenario, wrong, {}, policy, rng), util::InvalidArgument);
}

TEST(Runtime, RunIsSingleShot) {
  const ScenarioConfig scenario = tiny_scenario();
  const topo::AccessTopology topology = tiny_topology();
  NoSleepPolicy policy;
  sim::Random rng(1);
  trace::FlowTrace flows;
  AccessRuntime runtime(scenario, topology, flows, policy, rng);
  runtime.run();
  EXPECT_THROW(runtime.run(), util::InvalidState);
}

TEST(Runtime, TraceRuntimeRefusesLiveAppends) {
  // A trace runtime's input is the whole trace, already finished.
  const ScenarioConfig scenario = tiny_scenario();
  const topo::AccessTopology topology = tiny_topology();
  NoSleepPolicy policy;
  const trace::FlowTrace flows{{100.0, 0, 750000.0}};
  AccessRuntime runtime(scenario, topology, flows, policy, sim::Random(1));
  const trace::FlowRecord extra{200.0, 1, 750000.0};
  EXPECT_THROW(runtime.append_live_arrivals(&extra, 1), util::InvalidState);
  EXPECT_EQ(runtime.arrivals_appended(), 1u);
  runtime.begin_live();
  EXPECT_THROW(runtime.append_live_arrivals(&extra, 1), util::InvalidState);
}

TEST(Runtime, LiveRuntimeRefusesRun) {
  // run() replays finished input; a fresh LiveMode runtime has none.
  const ScenarioConfig scenario = tiny_scenario();
  const topo::AccessTopology topology = tiny_topology();
  for (const bool gated : {true, false}) {
    NoSleepPolicy policy;
    AccessRuntime runtime(scenario, topology, policy, sim::Random(1),
                          AccessRuntime::LiveMode{gated});
    EXPECT_THROW(runtime.run(), util::InvalidState) << "gated " << gated;
  }
}

TEST(Runtime, TraceCompletionTimesCoverTheTraceWithNaNForUnfinishedFlows) {
  const ScenarioConfig scenario = tiny_scenario();
  const topo::AccessTopology topology = tiny_topology();
  // 750 kB at 6 Mbps is 1 s of service; 10 GB arriving at t=1900 needs
  // hours, far past the day's end plus drain (t=2500).
  const trace::FlowTrace flows{{100.0, 0, 750000.0}, {1900.0, 1, 1e10}};
  NoSleepPolicy policy;
  const RunMetrics m = AccessRuntime(scenario, topology, flows, policy, sim::Random(1)).run();
  ASSERT_EQ(m.completion_time.size(), flows.size());
  EXPECT_NEAR(m.completion_time[0], 1.0, 1e-6);
  EXPECT_TRUE(std::isnan(m.completion_time[1]));

  // No flow finishing at all still yields one (NaN) time per record.
  const trace::FlowTrace unfinished{{1900.0, 0, 1e10}, {1950.0, 1, 1e10}};
  NoSleepPolicy idle_policy;
  const RunMetrics none =
      AccessRuntime(scenario, topology, unfinished, idle_policy, sim::Random(1)).run();
  ASSERT_EQ(none.completion_time.size(), unfinished.size());
  for (const double fct : none.completion_time) EXPECT_TRUE(std::isnan(fct));
}

TEST(Runtime, LiveAppendRefusesNegativeAndNonFiniteRecords) {
  const ScenarioConfig scenario = tiny_scenario();
  const topo::AccessTopology topology = tiny_topology();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const trace::FlowRecord bad[] = {{-0.5, 0, 100.0}, {inf, 0, 100.0}, {nan, 0, 100.0},
                                   {1.0, 0, inf},    {1.0, 0, nan},   {1.0, 0, -1.0}};
  for (const bool gated : {true, false}) {
    for (const trace::FlowRecord& record : bad) {
      NoSleepPolicy policy;
      AccessRuntime runtime(scenario, topology, policy, sim::Random(1),
                            AccessRuntime::LiveMode{gated});
      EXPECT_THROW(runtime.append_live_arrivals(&record, 1), util::InvalidArgument)
          << "gated " << gated << " record (" << record.start_time << ", " << record.bytes
          << ")";
      EXPECT_EQ(runtime.arrivals_appended(), 0u);
    }
    // A zero start time and zero bytes are the smallest valid record.
    NoSleepPolicy policy;
    AccessRuntime runtime(scenario, topology, policy, sim::Random(1),
                          AccessRuntime::LiveMode{gated});
    const trace::FlowRecord edge{0.0, 1, 0.0};
    runtime.append_live_arrivals(&edge, 1);
    EXPECT_EQ(runtime.arrivals_appended(), 1u);
  }
}

/// Steps a gated live runtime over `flows` appended in `batch`-record
/// slices, then to `until`; returns the finished day's metrics.
RunMetrics live_day(const ScenarioConfig& scenario, const topo::AccessTopology& topology,
                    const trace::FlowTrace& flows, std::size_t batch, double until) {
  NoSleepPolicy policy;
  AccessRuntime runtime(scenario, topology, policy, sim::Random(5),
                        AccessRuntime::LiveMode{true});
  runtime.begin_live();
  for (std::size_t first = 0; first < flows.size(); first += batch) {
    const std::size_t count = std::min(batch, flows.size() - first);
    runtime.append_live_arrivals(flows.data() + first, count);
    runtime.step_live(std::min(until, flows[first + count - 1].start_time));
  }
  runtime.finish_live_input();
  EXPECT_EQ(runtime.step_live(until), AccessRuntime::StepResult::kReachedTime);
  return runtime.finish_live(std::min(until, scenario.duration));
}

TEST(Runtime, LiveDayKeepsTheOfflineCompletionTimes) {
  // The live store holds completion times in doubling segments (4096,
  // 8192, ... ids); a day of several segments returns run()'s times bit
  // for bit, one per appended record.
  ScenarioConfig scenario = find_scenario_preset("paper-default").scenario;
  scenario.duration = 12 * 3600.0;
  sim::Random topology_rng(3);
  const topo::AccessTopology topology =
      topo::make_overlap_topology(scenario.client_count, scenario.degrees, topology_rng);
  sim::Random trace_rng(5);
  trace::FlowTrace flows =
      trace::SyntheticCrawdadGenerator(scenario.traffic).generate(trace_rng);
  flows.erase(std::find_if(flows.begin(), flows.end(),
                           [&](const trace::FlowRecord& r) {
                             return r.start_time >= scenario.duration;
                           }),
              flows.end());
  ASSERT_GT(flows.size(), 4096u + 8192u);  // into the third segment

  NoSleepPolicy policy;
  AccessRuntime offline(scenario, topology, flows, policy, sim::Random(5));
  const RunMetrics expected = offline.run();
  const RunMetrics live =
      live_day(scenario, topology, flows, 1000, scenario.duration + scenario.drain_time);
  ASSERT_EQ(live.completion_time.size(), flows.size());
  EXPECT_EQ(live.executed_events, expected.executed_events);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    ASSERT_FALSE(std::isnan(expected.completion_time[i]));
    ASSERT_EQ(live.completion_time[i], expected.completion_time[i]) << "flow " << i;
  }

  // A day stopped at its midpoint keeps a time for every appended record:
  // the offline time for each flow that finished by then, NaN for the rest.
  const RunMetrics stopped = live_day(scenario, topology, flows, 1000, scenario.duration / 2);
  ASSERT_EQ(stopped.completion_time.size(), flows.size());
  std::size_t finished = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (std::isnan(stopped.completion_time[i])) continue;
    ++finished;
    ASSERT_EQ(stopped.completion_time[i], expected.completion_time[i]) << "flow " << i;
  }
  EXPECT_GT(finished, 0u);
  EXPECT_LT(finished, flows.size());
}

}  // namespace
}  // namespace insomnia::core
