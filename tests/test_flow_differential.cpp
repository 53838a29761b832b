// The reference-twin differential harness: seeded randomized scenarios are
// replayed against ReferenceFluidNetwork and IncrementalFluidNetwork in
// lockstep, and every observable — completion records in callback order,
// rates, counts, load()/served_bits() series probes, last-activity times —
// must match BIT FOR BIT. This is the contract that lets the incremental
// engine be the only one production builds: it is not "close to" the
// reference, it is observationally indistinguishable from it.
//
// Scenario generation notes:
//  * All times, sizes and caps are drawn from continuous distributions, so
//    engineered floating-point ties (two gateways completing at the exact
//    same double, an arrival landing on a completion instant) have measure
//    zero. Tie ORDER between such coincident events is the one place the
//    engines may legitimately differ; continuous draws keep it unreachable.
//  * Same-instant arrival batches are generated deliberately — they are the
//    coalescing path the incremental engine optimizes.
//  * Completion handlers re-enter the network (adds, migrations, probes of
//    deliberately-stale rates) keyed deterministically off the finished
//    flow id, so both engines replay identical re-entrant mutations.
//
// Scenario count defaults to 1000; INSOMNIA_DIFF_SCENARIOS overrides it
// (CI and scripts/check.sh run a reduced count).
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flow/fluid_network.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "support/fluid_engines.h"

namespace insomnia::flow {
namespace {

struct Op {
  double time = 0.0;
  int kind = 0;  // 0 = add, 1 = serving, 2 = migrate, 3 = probe
  FlowId id = 0;
  int client = 0;
  int gateway = 0;
  double bytes = 0.0;
  double cap = 0.0;
  bool serving = false;
  double window = 1.0;
};

struct IntegralQuery {
  int gateway = 0;
  double t0 = 0.0;
  double t1 = 0.0;
};

struct Scenario {
  int gateway_count = 1;
  std::vector<double> backhaul;
  std::vector<Op> ops;
  std::vector<IntegralQuery> integrals;
  double horizon = 0.0;
};

Scenario generate(std::uint64_t seed) {
  sim::Random rng(seed);
  Scenario s;
  s.gateway_count = rng.uniform_int(1, 6);
  for (int g = 0; g < s.gateway_count; ++g) {
    s.backhaul.push_back(rng.uniform(5e5, 2e7));
  }
  s.horizon = rng.uniform(50.0, 400.0);
  const int op_count = rng.uniform_int(30, 120);
  FlowId next_id = 0;
  for (int i = 0; i < op_count; ++i) {
    const double t = rng.uniform(0.0, s.horizon * 0.8);
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.55) {
      // Arrival burst: 1-4 flows at the exact same instant.
      const int batch = rng.uniform_int(1, 4);
      for (int b = 0; b < batch; ++b) {
        Op op;
        op.time = t;
        op.kind = 0;
        op.id = next_id++;
        op.client = rng.uniform_int(0, 12);
        op.gateway = rng.uniform_int(0, s.gateway_count - 1);
        op.bytes = rng.bernoulli(0.05) ? 0.0 : rng.bounded_pareto(1.3, 300.0, 5e6);
        op.cap = rng.uniform(2e5, 3e7);
        s.ops.push_back(op);
      }
    } else if (roll < 0.75) {
      Op op;
      op.time = t;
      op.kind = 1;
      op.gateway = rng.uniform_int(0, s.gateway_count - 1);
      op.serving = rng.bernoulli(0.7);
      s.ops.push_back(op);
    } else if (roll < 0.85) {
      if (next_id == 0) continue;
      // Migration of a flow that may be live, completed (no-op) or stalled.
      Op op;
      op.time = t;
      op.kind = 2;
      op.id = static_cast<FlowId>(rng.uniform_int(0, static_cast<int>(next_id) - 1));
      op.gateway = rng.uniform_int(0, s.gateway_count - 1);
      op.cap = rng.uniform(2e5, 3e7);
      s.ops.push_back(op);
    } else {
      Op op;
      op.time = t;
      op.kind = 3;
      op.client = rng.uniform_int(0, 12);
      op.gateway = rng.uniform_int(0, s.gateway_count - 1);
      op.window = rng.uniform(0.5, 60.0);
      s.ops.push_back(op);
    }
  }
  std::stable_sort(s.ops.begin(), s.ops.end(),
                   [](const Op& a, const Op& b) { return a.time < b.time; });
  for (int q = 0; q < 8; ++q) {
    IntegralQuery query;
    query.gateway = rng.uniform_int(0, s.gateway_count - 1);
    const double a = rng.uniform(0.0, s.horizon);
    const double b = rng.uniform(0.0, s.horizon);
    query.t0 = std::min(a, b);
    query.t1 = std::max(a, b);
    s.integrals.push_back(query);
  }
  return s;
}

/// Replays the scenario on one engine and serializes every observation into
/// a flat log, in execution order. Two engines are equivalent iff their
/// logs are element-wise identical (== on doubles: bit-identity for the
/// non-zero values the scenario produces).
std::vector<double> run_one(TestEngine engine, const Scenario& s) {
  std::vector<double> log;
  sim::Simulator sim;
  const auto net = make_test_engine(engine, sim, s.backhaul);
  const int gw_count = s.gateway_count;

  FunctionSink sink([&](const CompletedFlow& f) {
    log.push_back(-1.0);  // completion tag
    log.push_back(static_cast<double>(f.id));
    log.push_back(static_cast<double>(f.client));
    log.push_back(static_cast<double>(f.gateway));
    log.push_back(f.arrival_time);
    log.push_back(f.completion_time);
    log.push_back(f.bytes);
    // Deterministic re-entrant mutations keyed by the finished id, so both
    // engines perform the same calls in the same callback order.
    if (f.id < 1'000'000) {
      const FlowId id = f.id;
      if (id % 7 == 3) {
        net->add_flow(id + 1'000'000, static_cast<int>(id % 23),
                      static_cast<int>(id % static_cast<FlowId>(gw_count)),
                      500.0 + static_cast<double>(id % 97) * 13.37,
                      1e6 + static_cast<double>(id % 31) * 1e5);
      }
      if (id % 11 == 5 && id > 0) {
        net->migrate_flow(id - 1, static_cast<int>(id % static_cast<FlowId>(gw_count)),
                          7.5e5 + static_cast<double>(id % 13) * 2.5e5);
      }
      if (id % 13 == 7) {
        net->set_gateway_serving(static_cast<int>(id % static_cast<FlowId>(gw_count)),
                                 id % 2 == 0);
      }
      if (id % 17 == 2) {
        // Mid-callback rates are deliberately stale in both engines (the
        // re-waterfill after a completion has not run yet); the stale
        // values must match too.
        log.push_back(net->gateway_throughput(static_cast<int>(id % gw_count)));
      }
    }
  });
  net->set_completion_sink(&sink);

  for (const Op& op : s.ops) {
    sim.at(op.time, [&, op] {
      switch (op.kind) {
        case 0:
          net->add_flow(op.id, op.client, op.gateway, op.bytes, op.cap);
          break;
        case 1:
          net->set_gateway_serving(op.gateway, op.serving);
          break;
        case 2:
          net->migrate_flow(op.id, op.gateway, op.cap);
          break;
        default:
          log.push_back(-2.0);  // probe tag
          log.push_back(net->client_throughput_at(op.client, op.gateway));
          log.push_back(net->gateway_throughput(op.gateway));
          log.push_back(static_cast<double>(net->active_flow_count(op.gateway)));
          log.push_back(static_cast<double>(net->client_flow_count_at(op.client, op.gateway)));
          log.push_back(net->load(op.gateway, op.window));
          log.push_back(net->served_bits(op.gateway, 0.0, sim.now()));
          log.push_back(net->last_activity(op.gateway));
          log.push_back(static_cast<double>(net->total_active_flows()));
          log.push_back(net->gateway_serving(op.gateway) ? 1.0 : 0.0);
          break;
      }
    });
  }
  sim.run_until(s.horizon);

  // Final snapshot: whatever is still live, plus the full served series
  // through randomized sub-interval integrals.
  log.push_back(-3.0);
  log.push_back(static_cast<double>(net->total_active_flows()));
  for (int g = 0; g < gw_count; ++g) {
    log.push_back(net->served_bits(g, 0.0, s.horizon));
    log.push_back(net->gateway_throughput(g));
    log.push_back(net->load(g, 30.0));
    log.push_back(net->last_activity(g));
    log.push_back(static_cast<double>(net->active_flow_count(g)));
  }
  for (const IntegralQuery& q : s.integrals) {
    log.push_back(net->served_bits(q.gateway, q.t0, q.t1));
  }
  return log;
}

int scenario_count() {
  if (const char* env = std::getenv("INSOMNIA_DIFF_SCENARIOS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1000;
}

TEST(FlowDifferential, EnginesBitIdenticalOnRandomScenarios) {
  const int scenarios = scenario_count();
  std::uint64_t completions_seen = 0;
  for (int index = 0; index < scenarios; ++index) {
    const Scenario scenario = generate(1234567ull + static_cast<std::uint64_t>(index));
    const std::vector<double> ref = run_one(TestEngine::kReference, scenario);
    const std::vector<double> inc = run_one(TestEngine::kIncremental, scenario);
    completions_seen += static_cast<std::uint64_t>(
        std::count(ref.begin(), ref.end(), -1.0));
    if (ref == inc) continue;
    ASSERT_EQ(ref.size(), inc.size()) << "scenario " << index << ": log lengths diverge";
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], inc[i]) << "scenario " << index << ": first divergence at log entry "
                                << i;
    }
  }
  // The generator must actually exercise the engines, not produce empty
  // scenarios.
  EXPECT_GT(completions_seen, static_cast<std::uint64_t>(scenarios));
}

}  // namespace
}  // namespace insomnia::flow
