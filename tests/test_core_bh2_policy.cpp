// Runtime-level tests of the BH2 policy: aggregation end-to-end on scripted
// traces where the expected behaviour can be reasoned out exactly —
// hitch-hiking onto a warm neighbour, the home gateway then sleeping,
// reroute-on-arrival instead of pointless wakes, and the return-home path.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/bh2_policy.h"
#include "core/metrics.h"
#include "core/runtime.h"
#include "topology/access_topology.h"
#include "util/error.h"

namespace insomnia::core {
namespace {

/// Two clients, two gateways, everyone in range of everything.
ScenarioConfig pair_scenario() {
  ScenarioConfig scenario;
  scenario.client_count = 2;
  scenario.gateway_count = 2;
  scenario.duration = 4000.0;
  scenario.drain_time = 500.0;
  scenario.dslam.line_cards = 2;
  scenario.dslam.ports_per_card = 1;
  scenario.dslam.switch_size = 2;
  scenario.traffic.client_count = 2;
  return scenario;
}

topo::AccessTopology pair_topology() {
  topo::AccessTopology topology;
  topology.gateway_count = 2;
  topology.home_gateway = {0, 1};
  topology.client_gateways = {{0, 1}, {1, 0}};
  return topology;
}

/// Client 1 streams steadily on gateway 1 (load between the thresholds);
/// client 0 emits keep-alives. BH2 should move client 0's traffic to
/// gateway 1 and let gateway 0 sleep.
trace::FlowTrace hitchhike_trace(double duration) {
  trace::FlowTrace flows;
  double t = 50.0;
  while (t < duration) {
    // Client 1: 1.5 MB every 10 s through its home = ~20 % load: a valid
    // aggregation target, not a sleep candidate.
    flows.push_back({t, 1, 1.5e6});
    t += 10.0;
  }
  double ka = 55.0;
  while (ka < duration) {
    flows.push_back({ka, 0, 400.0});  // client 0 keep-alives
    ka += 20.0;
  }
  std::sort(flows.begin(), flows.end(),
            [](const trace::FlowRecord& a, const trace::FlowRecord& b) {
              return a.start_time < b.start_time;
            });
  return flows;
}

TEST(Bh2PolicyRuntime, HitchHikesAndHomeSleeps) {
  const ScenarioConfig scenario = pair_scenario();
  const topo::AccessTopology topology = pair_topology();
  const trace::FlowTrace flows = hitchhike_trace(scenario.duration);
  Bh2Policy policy(1);
  sim::Random rng(4);
  AccessRuntime runtime(scenario, topology, flows, policy, rng);
  const RunMetrics m = runtime.run();

  // (The *final* assignment may lazily point back home once traffic ends
  // and the hub sleeps during the drain phase, so we assert on behaviour
  // over the day, not on the end state.)
  // Client 0's home must have slept for most of the day: with pure SoI the
  // 20 s keep-alive spacing would keep gateway 0 up continuously.
  EXPECT_LT(m.gateway_online_time[0], 0.25 * scenario.duration);
  // The aggregation gateway carries both users and stays up.
  EXPECT_GT(m.gateway_online_time[1], 0.9 * scenario.duration);
  // Every flow completes.
  for (double fct : m.completion_time) EXPECT_FALSE(std::isnan(fct));
}

TEST(Bh2PolicyRuntime, KeepAlivesRerouteInsteadOfWakingHome) {
  const ScenarioConfig scenario = pair_scenario();
  const topo::AccessTopology topology = pair_topology();
  const trace::FlowTrace flows = hitchhike_trace(scenario.duration);
  Bh2Policy policy(1);
  sim::Random rng(4);
  AccessRuntime runtime(scenario, topology, flows, policy, rng);
  const RunMetrics m = runtime.run();
  // Once aggregated, client 0's keep-alives ride gateway 1: at most the
  // initial wake-ups of each gateway should ever happen.
  EXPECT_LE(m.gateway_wake_events, 4);
}

TEST(Bh2PolicyRuntime, NoTargetsMeansHomeOnlyBehaviour) {
  // Client 1 idles (its gateway is a sleep candidate), so client 0 has no
  // valid aggregation target and must keep using its home like plain SoI.
  const ScenarioConfig scenario = pair_scenario();
  const topo::AccessTopology topology = pair_topology();
  trace::FlowTrace flows;
  for (double t = 50.0; t < scenario.duration; t += 20.0) {
    flows.push_back({t, 0, 400.0});
  }
  Bh2Policy policy(1);
  sim::Random rng(4);
  AccessRuntime runtime(scenario, topology, flows, policy, rng);
  const RunMetrics m = runtime.run();
  EXPECT_EQ(policy.assignment(0), 0);
  // Home stays up through the keep-alive stream (gaps < timeout).
  EXPECT_GT(m.gateway_online_time[0], 0.9 * (scenario.duration - 110.0));
  EXPECT_DOUBLE_EQ(m.gateway_online_time[1], 0.0);
}

TEST(Bh2PolicyRuntime, EvictionReturnsHomeWhenNoEscapeExists) {
  // Gateway 1 saturates with client 1's own traffic; client 0 (a guest
  // there) must leave. With gateway 0 asleep and nothing else in range the
  // guest returns home, waking it.
  const ScenarioConfig scenario = pair_scenario();
  const topo::AccessTopology topology = pair_topology();
  trace::FlowTrace flows;
  // Phase 1: client 1 moderately loaded, client 0 hitch-hikes.
  for (double t = 50.0; t < 1500.0; t += 10.0) flows.push_back({t, 1, 1.5e6});
  for (double t = 55.0; t < 3800.0; t += 20.0) flows.push_back({t, 0, 400.0});
  // Phase 2: client 1 saturates its line.
  for (double t = 1500.0; t < 3800.0; t += 4.0) flows.push_back({t, 1, 3.2e6});
  std::sort(flows.begin(), flows.end(),
            [](const trace::FlowRecord& a, const trace::FlowRecord& b) {
              return a.start_time < b.start_time;
            });
  Bh2Policy policy(1);
  sim::Random rng(4);
  AccessRuntime runtime(scenario, topology, flows, policy, rng);
  const RunMetrics m = runtime.run();
  // The guest ends the day back at home, and the home was woken for it.
  EXPECT_EQ(policy.assignment(0), 0);
  EXPECT_GE(m.bh2_home_returns, 1);
  EXPECT_GT(m.gateway_online_time[0], 0.0);
}

TEST(Bh2PolicyRuntime, BackupZeroStallsOnHomeWake) {
  // Without backups, a flow arriving while everything sleeps must wake the
  // home gateway and wait the full wake time.
  const ScenarioConfig scenario = pair_scenario();
  const topo::AccessTopology topology = pair_topology();
  const trace::FlowTrace flows{{1000.0, 0, 750000.0}};
  Bh2Policy policy(0);
  sim::Random rng(4);
  AccessRuntime runtime(scenario, topology, flows, policy, rng);
  const RunMetrics m = runtime.run();
  EXPECT_NEAR(m.completion_time[0], scenario.wake_time + 1.0, 1e-6);
}

TEST(Bh2PolicyRuntime, RejectsNonPositiveDecisionPeriod) {
  // A zero period would re-arm each epoch at the same instant forever, so
  // the clock would never advance; the policy refuses it before arming any
  // epoch.
  const topo::AccessTopology topology = pair_topology();
  const trace::FlowTrace flows{{100.0, 0, 400.0}};
  for (const double period : {0.0, -150.0, std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    ScenarioConfig scenario = pair_scenario();
    scenario.bh2.decision_period = period;
    Bh2Policy policy(1);
    sim::Random rng(4);
    AccessRuntime runtime(scenario, topology, flows, policy, rng);
    EXPECT_THROW(runtime.run(), util::InvalidArgument) << "period " << period;
    EXPECT_EQ(runtime.simulator().pending_events(), 0u) << "period " << period;
  }
}

}  // namespace
}  // namespace insomnia::core
