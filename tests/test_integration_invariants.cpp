// Cross-module properties and failure injection:
//  * conservation: what the trace offers is exactly what the network serves,
//  * the incremental k-switch packing reaches the analytic Eq. (2) model in
//    steady state,
//  * pathological traces (bursts, hot spots, boundary timestamps) cannot
//    break runtime invariants.
#include <cmath>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/scheme_registry.h"
#include "dslam/dslam.h"
#include "dslam/sleep_model.h"
#include "flow/fluid_network.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "support/fluid_engines.h"
#include "topology/access_topology.h"
#include "trace/synthetic_crawdad.h"

namespace insomnia {
namespace {

// Conservation must hold on both fluid engines.
class Conservation : public ::testing::TestWithParam<flow::TestEngine> {};

INSTANTIATE_TEST_SUITE_P(BothEngines, Conservation,
                         ::testing::Values(flow::TestEngine::kReference,
                                           flow::TestEngine::kIncremental),
                         [](const ::testing::TestParamInfo<flow::TestEngine>& info) {
                           return std::string(flow::test_engine_name(info.param));
                         });

TEST_P(Conservation, ServedBitsEqualOfferedBits) {
  // Under no-sleep every byte of the trace is eventually served; the
  // gateway service-rate integrals must account for all of it exactly.
  sim::Simulator sim;
  const auto owned = flow::make_test_engine(GetParam(), sim, {6e6, 6e6, 6e6});
  flow::FluidNetwork& net = *owned;
  for (int g = 0; g < 3; ++g) net.set_gateway_serving(g, true);
  sim::Random rng(5);
  double offered_bits = 0.0;
  for (flow::FlowId id = 0; id < 3000; ++id) {
    const double t = rng.uniform(0.0, 2000.0);
    const double bytes = rng.bounded_pareto(1.2, 200.0, 2e6);
    offered_bits += bytes * 8.0;
    sim.at(t, [&net, id, bytes, &rng] {
      net.add_flow(id, static_cast<int>(id % 40), static_cast<int>(id % 3), bytes, 12e6);
    });
  }
  sim.run_until(100000.0);
  EXPECT_EQ(net.total_active_flows(), 0);
  double served = 0.0;
  for (int g = 0; g < 3; ++g) served += net.served_bits(g, 0.0, 100000.0);
  EXPECT_NEAR(served, offered_bits, offered_bits * 1e-9 + 1.0);
}

TEST_P(Conservation, StallingDoesNotLoseBits) {
  sim::Simulator sim;
  const auto owned = flow::make_test_engine(GetParam(), sim, {1e6});
  flow::FluidNetwork& net = *owned;
  net.set_gateway_serving(0, true);
  net.add_flow(1, 0, 0, 1e6, 1e9);  // 8 Mbit -> 8 s of service
  // Toggle serving on and off repeatedly mid-flow.
  for (int i = 1; i <= 10; ++i) {
    sim.at(i * 1.0, [&net, i] { net.set_gateway_serving(0, i % 2 == 0); });
  }
  sim.run_until(1000.0);
  EXPECT_EQ(net.total_active_flows(), 0);
  EXPECT_NEAR(net.served_bits(0, 0.0, 1000.0), 8e6, 1.0);
}

/// Steady-state packing: repeatedly redraw the active set (each line active
/// with probability p) with deactivate-then-activate transitions; the
/// long-run sleep frequency of card l must match the corrected Eq. (2).
class KSwitchStationary : public ::testing::TestWithParam<double> {};

TEST_P(KSwitchStationary, MatchesAnalyticModel) {
  const double p = GetParam();
  sim::Random rng(42);
  dslam::DslamConfig config;
  config.line_cards = 4;
  config.ports_per_card = 6;
  config.mode = dslam::SwitchMode::kKSwitch;
  config.switch_size = 4;
  dslam::Dslam dslam(config, rng);

  const int rounds = 4000;
  std::vector<int> sleeps(4, 0);
  for (int round = 0; round < rounds; ++round) {
    // Fresh world: everything inactive, then wake a random subset. Wakes
    // after sleeps give the fabric its ideal packing for this draw.
    for (int line = 0; line < dslam.line_count(); ++line) dslam.line_deactivated(line);
    for (int line = 0; line < dslam.line_count(); ++line) {
      if (rng.bernoulli(p)) dslam.line_activated(line);
    }
    for (int card = 0; card < 4; ++card) {
      if (!dslam.card_awake(card)) ++sleeps[static_cast<std::size_t>(card)];
    }
  }
  // Cards are packed active-to-the-bottom, so card 0 plays the role of
  // "card 1" in Eq. (2).
  for (int l = 1; l <= 4; ++l) {
    const double expected = dslam::sleep_probability_exact(l, 4, 6, p);
    const double observed =
        static_cast<double>(sleeps[static_cast<std::size_t>(l - 1)]) / rounds;
    EXPECT_NEAR(observed, expected, 0.03) << "card " << l << " p " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(ActivityLevels, KSwitchStationary,
                         ::testing::Values(0.25, 0.5, 0.75));

core::ScenarioConfig tiny_scenario() {
  core::ScenarioConfig scenario;
  scenario.client_count = 12;
  scenario.gateway_count = 4;
  scenario.degrees.node_count = 4;
  scenario.degrees.mean_degree = 2.0;
  scenario.traffic.client_count = 12;
  scenario.duration = 7200.0;
  scenario.drain_time = 3600.0;
  scenario.dslam.line_cards = 2;
  scenario.dslam.ports_per_card = 2;
  scenario.dslam.switch_size = 2;
  return scenario;
}

topo::AccessTopology tiny_topology() {
  topo::AccessTopology topology;
  topology.gateway_count = 4;
  topology.home_gateway.resize(12);
  topology.client_gateways.resize(12);
  for (int c = 0; c < 12; ++c) {
    topology.home_gateway[static_cast<std::size_t>(c)] = c % 4;
    topology.client_gateways[static_cast<std::size_t>(c)] = {c % 4, (c + 1) % 4, (c + 2) % 4};
  }
  return topology;
}

void check_run_invariants(const core::ScenarioConfig& scenario,
                          const trace::FlowTrace& flows, const std::string& scheme) {
  const core::RunMetrics m = core::run_scheme(scenario, tiny_topology(), flows, scheme, 3);
  // Power series are non-negative and bounded by the all-on draw.
  const double max_user = scenario.household_watts() * scenario.gateway_count;
  const double max_isp = 21.0 + 98.0 * scenario.dslam.line_cards + scenario.dslam_ports();
  const auto user = m.user_power.binned_means(0.0, m.duration, 12);
  const auto isp = m.isp_power.binned_means(0.0, m.duration, 12);
  for (double v : user) {
    EXPECT_GE(v, -1e-9);
    EXPECT_LE(v, max_user + 1e-9);
  }
  for (double v : isp) {
    EXPECT_GE(v, 20.0);  // shelf never sleeps
    EXPECT_LE(v, max_isp + 1e-9);
  }
  // Online counts within the population.
  const auto gw = m.online_gateways.binned_means(0.0, m.duration, 12);
  for (double v : gw) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, scenario.gateway_count);
  }
  // Completion times are positive or NaN; online time per gateway bounded.
  for (double fct : m.completion_time) {
    if (!std::isnan(fct)) { EXPECT_GE(fct, 0.0); }
  }
  for (double online : m.gateway_online_time) {
    EXPECT_GE(online, 0.0);
    EXPECT_LE(online, m.duration + 1e-6);
  }
}

TEST(FailureInjection, SimultaneousBurstAtOneInstant) {
  trace::FlowTrace flows;
  for (int i = 0; i < 200; ++i) flows.push_back({1000.0, i % 12, 5000.0});
  for (const char* scheme : {"soi", "bh2-kswitch", "optimal"}) {
    check_run_invariants(tiny_scenario(), flows, scheme);
  }
}

TEST(FailureInjection, HotSpotSingleClient) {
  // One client hammers its gateway far beyond capacity all morning.
  trace::FlowTrace flows;
  for (int i = 0; i < 500; ++i) {
    flows.push_back({static_cast<double>(i), 0, 3e6});  // 3 MB every second
  }
  for (const char* scheme : {"soi", "bh2-kswitch", "optimal"}) {
    check_run_invariants(tiny_scenario(), flows, scheme);
  }
}

TEST(FailureInjection, BoundaryTimestamps) {
  core::ScenarioConfig scenario = tiny_scenario();
  trace::FlowTrace flows;
  flows.push_back({0.0, 0, 1000.0});                       // first instant
  flows.push_back({scenario.duration - 1e-6, 11, 5e6});    // last instant
  for (const char* scheme : {"soi", "bh2-kswitch", "optimal"}) {
    check_run_invariants(scenario, flows, scheme);
  }
}

TEST(FailureInjection, KeepAliveDrizzleOnly) {
  // Pure keep-alive traffic (the paper's nightmare for SoI): sub-second
  // service, gaps straddling the idle timeout.
  core::ScenarioConfig scenario = tiny_scenario();
  trace::FlowTrace flows;
  sim::Random rng(8);
  double t = 0.0;
  while (t < scenario.duration) {
    flows.push_back({t, rng.uniform_int(0, 11), 300.0});
    t += rng.exponential(55.0);  // hovers around the 60 s timeout
  }
  check_run_invariants(scenario, flows, "soi");
  check_run_invariants(scenario, flows, "bh2-kswitch");
}

TEST(FailureInjection, EmptyTraceAllSchemes) {
  for (const char* scheme : {"no-sleep", "soi", "bh2-kswitch", "optimal"}) {
    check_run_invariants(tiny_scenario(), {}, scheme);
  }
}

}  // namespace
}  // namespace insomnia
