#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flow/flow_state.h"
#include "flow/fluid_network.h"
#include "sim/simulator.h"
#include "support/fluid_engines.h"
#include "util/error.h"

namespace insomnia::flow {
namespace {

// Every behavioural test runs against both engines: the reference oracle and
// the production incremental engine must be observationally interchangeable (the
// differential harness in test_flow_differential.cpp additionally checks
// bit-identity between them on randomized scenarios).
class FluidNetworkTest : public ::testing::TestWithParam<TestEngine> {};

struct Harness {
  sim::Simulator sim;
  std::unique_ptr<FluidNetwork> owned;
  FluidNetwork& net;
  std::map<FlowId, CompletedFlow> done;
  FunctionSink record{[this](const CompletedFlow& f) { done[f.id] = f; }};

  Harness(TestEngine engine, std::vector<double> backhaul)
      : owned(make_test_engine(engine, sim, std::move(backhaul))), net(*owned) {
    net.set_completion_sink(&record);
  }
};

TEST_P(FluidNetworkTest, SingleFlowExactCompletionTime) {
  Harness h(GetParam(), {1e6});  // 1 Mbps
  h.net.set_gateway_serving(0, true);
  // 1 Mbit = 125000 bytes at 1 Mbps -> exactly 1 s.
  h.net.add_flow(1, 0, 0, 125000.0, 1e9);
  h.sim.run_until(10.0);
  ASSERT_TRUE(h.done.count(1) != 0);
  EXPECT_NEAR(h.done[1].duration(), 1.0, 1e-9);
}

TEST_P(FluidNetworkTest, WirelessCapLimitsRate) {
  Harness h(GetParam(), {1e6});
  h.net.set_gateway_serving(0, true);
  // Cap at 0.5 Mbps: the 1 Mbit flow takes 2 s.
  h.net.add_flow(1, 0, 0, 125000.0, 0.5e6);
  h.sim.run_until(10.0);
  EXPECT_NEAR(h.done[1].duration(), 2.0, 1e-9);
}

TEST_P(FluidNetworkTest, TwoFlowsShareFairly) {
  Harness h(GetParam(), {1e6});
  h.net.set_gateway_serving(0, true);
  h.net.add_flow(1, 0, 0, 125000.0, 1e9);
  h.net.add_flow(2, 1, 0, 125000.0, 1e9);
  h.sim.run_until(10.0);
  // Both progress at 0.5 Mbps until both finish at t=2.
  EXPECT_NEAR(h.done[1].completion_time, 2.0, 1e-9);
  EXPECT_NEAR(h.done[2].completion_time, 2.0, 1e-9);
}

TEST_P(FluidNetworkTest, ShortFlowLeavesLongFlowSpeedsUp) {
  Harness h(GetParam(), {1e6});
  h.net.set_gateway_serving(0, true);
  h.net.add_flow(1, 0, 0, 125000.0, 1e9);  // 1 Mbit
  h.net.add_flow(2, 1, 0, 62500.0, 1e9);   // 0.5 Mbit
  h.sim.run_until(10.0);
  // Shared at 0.5 Mbps: flow 2 done at t=1; flow 1 has 0.5 Mbit left,
  // finishes at 1 + 0.5 = 1.5 s.
  EXPECT_NEAR(h.done[2].completion_time, 1.0, 1e-9);
  EXPECT_NEAR(h.done[1].completion_time, 1.5, 1e-9);
}

TEST_P(FluidNetworkTest, NotServingStallsFlows) {
  Harness h(GetParam(), {1e6});
  h.net.add_flow(1, 0, 0, 125000.0, 1e9);  // gateway not serving
  h.sim.run_until(5.0);
  EXPECT_TRUE(h.done.empty());
  h.net.set_gateway_serving(0, true);  // resumes at t=5
  h.sim.run_until(10.0);
  EXPECT_NEAR(h.done[1].completion_time, 6.0, 1e-9);
  EXPECT_NEAR(h.done[1].duration(), 6.0, 1e-9);  // stall included in FCT
}

TEST_P(FluidNetworkTest, MidFlightSuspendResume) {
  Harness h(GetParam(), {1e6});
  h.net.set_gateway_serving(0, true);
  h.net.add_flow(1, 0, 0, 250000.0, 1e9);  // 2 Mbit -> 2 s of service
  h.sim.at(1.0, [&h] { h.net.set_gateway_serving(0, false); });
  h.sim.at(4.0, [&h] { h.net.set_gateway_serving(0, true); });
  h.sim.run_until(10.0);
  EXPECT_NEAR(h.done[1].completion_time, 5.0, 1e-9);  // 1s + 3s stall + 1s
}

TEST_P(FluidNetworkTest, ZeroByteFlowCompletesImmediately) {
  Harness h(GetParam(), {1e6});
  h.net.add_flow(1, 0, 0, 0.0, 1e9);
  ASSERT_TRUE(h.done.count(1) != 0);
  EXPECT_DOUBLE_EQ(h.done[1].duration(), 0.0);
}

TEST_P(FluidNetworkTest, MigrationMovesRemainingBits) {
  Harness h(GetParam(), {1e6, 2e6});
  h.net.set_gateway_serving(0, true);
  h.net.set_gateway_serving(1, true);
  h.net.add_flow(1, 0, 0, 250000.0, 1e9);  // 2 Mbit on 1 Mbps
  h.sim.at(1.0, [&h] { h.net.migrate_flow(1, 1, 1e9); });  // 1 Mbit left
  h.sim.run_until(10.0);
  // Remaining 1 Mbit at 2 Mbps -> 0.5 s after migration.
  EXPECT_NEAR(h.done[1].completion_time, 1.5, 1e-9);
  EXPECT_EQ(h.done[1].gateway, 1);
}

TEST_P(FluidNetworkTest, MigrateUnknownOrDoneFlowIsNoOp) {
  Harness h(GetParam(), {1e6});
  h.net.set_gateway_serving(0, true);
  EXPECT_NO_THROW(h.net.migrate_flow(77, 0, 1e6));
  h.net.add_flow(1, 0, 0, 1000.0, 1e9);
  h.sim.run_until(1.0);
  EXPECT_NO_THROW(h.net.migrate_flow(1, 0, 1e6));
}

TEST_P(FluidNetworkTest, ThroughputAndCounts) {
  Harness h(GetParam(), {2e6});
  h.net.set_gateway_serving(0, true);
  EXPECT_EQ(h.net.active_flow_count(0), 0);
  h.net.add_flow(1, 0, 0, 1e9, 1e9);
  h.net.add_flow(2, 0, 0, 1e9, 1e9);
  EXPECT_EQ(h.net.active_flow_count(0), 2);
  EXPECT_EQ(h.net.client_flow_count_at(0, 0), 2);
  EXPECT_DOUBLE_EQ(h.net.gateway_throughput(0), 2e6);
  EXPECT_EQ(h.net.total_active_flows(), 2);
}

TEST_P(FluidNetworkTest, ServedBitsIntegrate) {
  Harness h(GetParam(), {1e6});
  h.net.set_gateway_serving(0, true);
  h.net.add_flow(1, 0, 0, 125000.0, 1e9);  // 1 Mbit over 1 s
  h.sim.run_until(4.0);
  EXPECT_NEAR(h.net.served_bits(0, 0.0, 4.0), 1e6, 1.0);
  EXPECT_NEAR(h.net.served_bits(0, 0.0, 0.5), 0.5e6, 1.0);
}

TEST_P(FluidNetworkTest, LoadOverTrailingWindow) {
  Harness h(GetParam(), {1e6});
  h.net.set_gateway_serving(0, true);
  h.net.add_flow(1, 0, 0, 125000.0, 1e9);
  h.sim.run_until(2.0);
  // 1 Mbit served within the last 2 s window on a 1 Mbps link -> 50 %.
  EXPECT_NEAR(h.net.load(0, 2.0), 0.5, 1e-9);
  h.sim.run_until(100.0);
  EXPECT_NEAR(h.net.load(0, 10.0), 0.0, 1e-9);
}

TEST_P(FluidNetworkTest, LastActivityTracksArrivalsAndService) {
  Harness h(GetParam(), {1e6});
  h.net.set_gateway_serving(0, true);
  EXPECT_DOUBLE_EQ(h.net.last_activity(0), 0.0);
  h.sim.at(3.0, [&h] { h.net.add_flow(1, 0, 0, 125000.0, 1e9); });
  h.sim.run_until(20.0);
  // The flow finished at t=4; that's the last instant traffic moved.
  EXPECT_NEAR(h.net.last_activity(0), 4.0, 1e-9);
}

TEST_P(FluidNetworkTest, DuplicateFlowIdRejected) {
  Harness h(GetParam(), {1e6});
  h.net.set_gateway_serving(0, true);
  h.net.add_flow(1, 0, 0, 1e6, 1e9);
  EXPECT_THROW(h.net.add_flow(1, 0, 0, 1e6, 1e9), util::InvalidArgument);
}

TEST_P(FluidNetworkTest, ValidatesConstruction) {
  sim::Simulator sim;
  EXPECT_THROW(make_test_engine(GetParam(), sim, {}), util::InvalidArgument);
  EXPECT_THROW(make_test_engine(GetParam(), sim, {0.0}), util::InvalidArgument);
}

TEST_P(FluidNetworkTest, SparseLargeFlowIdDoesNotBlowUpTheIdMap) {
  // A trace-supplied id far beyond the number of flows ever added must be
  // valid — and must not make the dense id vector allocate gigabytes. The
  // outlier goes to the overflow map; behaviour stays identical.
  Harness h(GetParam(), {1e6});
  h.net.set_gateway_serving(0, true);
  const FlowId huge = 1'000'000'000'000ull;  // ~8 TB as a dense vector
  h.net.add_flow(huge, 0, 0, 125000.0, 1e9);
  EXPECT_THROW(h.net.add_flow(huge, 0, 0, 1.0, 1e9), util::InvalidArgument);  // duplicate
  h.net.add_flow(3, 1, 0, 125000.0, 1e9);  // dense id keeps working alongside
  h.sim.run_until(10.0);
  ASSERT_TRUE(h.done.count(huge) != 0);
  EXPECT_NEAR(h.done[huge].duration(), 2.0, 1e-9);  // both shared the link
  ASSERT_TRUE(h.done.count(3) != 0);
  // The slot is free again after completion: the id may be reused.
  h.net.add_flow(huge, 0, 0, 1000.0, 1e9);
  h.sim.run_until(20.0);
  EXPECT_EQ(h.net.total_active_flows(), 0);
}

TEST_P(FluidNetworkTest, OverflowIdSurvivesLaterDenseGrowthPastIt) {
  // Regression: an id stored in the overflow map while it was an outlier
  // must stay visible after the dense vector later grows past it —
  // otherwise the flow goes invisible (migrate no-ops, duplicate check
  // passes) the moment enough dense flows arrive.
  Harness h(GetParam(), {1e9});
  h.net.set_gateway_serving(0, true);
  const FlowId outlier = 5000;  // above the fresh network's dense ceiling
  h.net.add_flow(outlier, 0, 0, 1e9, 1e3);  // slow: stays live throughout
  // Enough dense flows to raise the ceiling, then one dense id beyond the
  // outlier so the dense vector grows to cover (and shadow) index 5000.
  for (FlowId id = 0; id < 1300; ++id) h.net.add_flow(id, 1, 0, 1.0, 1e9);
  h.net.add_flow(5001, 1, 0, 1.0, 1e9);
  EXPECT_THROW(h.net.add_flow(outlier, 0, 0, 1.0, 1e9), util::InvalidArgument);  // still live
  h.net.migrate_flow(outlier, 0, 2e9);  // must find the flow, not no-op
  h.sim.run_until(10.0);
  ASSERT_TRUE(h.done.count(outlier) != 0);  // finished under the raised cap
  // After completion the id is reusable exactly once more.
  h.net.add_flow(outlier, 0, 0, 1.0, 1e9);
  h.sim.run_until(11.0);
  EXPECT_EQ(h.net.total_active_flows(), 0);
}

TEST_P(FluidNetworkTest, SparseLargeIdMigratesAndCancels) {
  Harness h(GetParam(), {1e6, 1e6});
  h.net.set_gateway_serving(0, true);
  h.net.set_gateway_serving(1, true);
  const FlowId huge = (1ull << 52) + 7;
  h.net.add_flow(huge, 0, 0, 250000.0, 1e9);
  h.sim.at(1.0, [&h, huge] { h.net.migrate_flow(huge, 1, 1e9); });
  h.sim.run_until(10.0);
  ASSERT_TRUE(h.done.count(huge) != 0);
  EXPECT_EQ(h.done[huge].gateway, 1);
  EXPECT_NO_THROW(h.net.migrate_flow(huge, 0, 1e9));  // done: no-op
}

TEST_P(FluidNetworkTest, ManyFlowsDrainCompletely) {
  Harness h(GetParam(), {6e6});
  h.net.set_gateway_serving(0, true);
  for (FlowId id = 0; id < 200; ++id) {
    h.sim.at(static_cast<double>(id) * 0.01, [&h, id] {
      h.net.add_flow(id, static_cast<int>(id % 7), 0, 10000.0, 12e6);
    });
  }
  h.sim.run_until(1000.0);
  EXPECT_EQ(h.done.size(), 200u);
  EXPECT_EQ(h.net.total_active_flows(), 0);
}

TEST_P(FluidNetworkTest, SameInstantArrivalBurstSettlesOnce) {
  // Several arrivals at the same instant: the incremental engine coalesces
  // them into one water-fill, which must be indistinguishable from the
  // reference's per-arrival reallocation.
  Harness h(GetParam(), {4e6});
  h.net.set_gateway_serving(0, true);
  h.sim.at(1.0, [&h] {
    for (FlowId id = 0; id < 4; ++id) {
      h.net.add_flow(id, static_cast<int>(id), 0, 125000.0, 1e9);
    }
    // Rates queried inside the burst instant must already be settled.
    EXPECT_DOUBLE_EQ(h.net.gateway_throughput(0), 4e6);
    EXPECT_DOUBLE_EQ(h.net.client_throughput_at(0, 0), 1e6);
  });
  h.sim.run_until(10.0);
  ASSERT_EQ(h.done.size(), 4u);
  for (FlowId id = 0; id < 4; ++id) {
    // 1 Mbit each at a fair 1 Mbps share -> all finish at t=2.
    EXPECT_NEAR(h.done[id].completion_time, 2.0, 1e-9);
  }
}

TEST_P(FluidNetworkTest, CompletionTiesFollowTheRescheduleRanks) {
  // A completion that ties with another event fires in the order the
  // reference's per-gateway event gets from schedule/reschedule ranks: a
  // completion time left unchanged by a reallocation elsewhere keeps its
  // rank (fires before U1, queued later), a completion time moved by a
  // reallocation takes a fresh one (fires after U2, queued earlier).
  Harness h(GetParam(), {1e6, 1e6});
  std::vector<std::string> log;
  FunctionSink log_completions(
      [&](const CompletedFlow& f) { log.push_back("F" + std::to_string(f.id)); });
  h.net.set_completion_sink(&log_completions);
  h.net.set_gateway_serving(0, true);
  h.net.set_gateway_serving(1, true);
  h.net.add_flow(1, 0, 0, 125000.0, 1e9);  // 1 Mbit alone at 1 Mbps: done at 1.0
  h.sim.at(0.25, [&] { h.sim.at(1.0, [&] { log.push_back("U1"); }); });
  // Flow 2 on the other gateway (2 Mbit, done at 2.5) leaves flow 1's 1.0.
  h.sim.at(0.5, [&] { h.net.add_flow(2, 1, 1, 250000.0, 1e9); });
  h.sim.at(1.25, [&] { h.sim.at(3.5, [&] { log.push_back("U2"); }); });
  // Flow 3 halves flow 2's rate: its last 1 Mbit now ends at 3.5.
  h.sim.at(1.5, [&] { h.net.add_flow(3, 2, 1, 1.25e6, 1e9); });
  h.sim.run_until(3.5);
  EXPECT_EQ(log, (std::vector<std::string>{"F1", "U1", "U2", "F2"}));
}

TEST(FlowIndex, KeepsMappingsAcrossTheWindowAndTheOverflowMap) {
  FlowIndex index;
  EXPECT_FALSE(index.find(0).valid());
  EXPECT_FALSE(index.find(999).valid());
  index.store(0, 1, 4);
  index.store(999, 2, 7);
  index.store(1500, 3, 1);  // past the window's ceiling: the overflow map
  EXPECT_EQ(index.find(999).gateway, 2);
  EXPECT_EQ(index.find(999).pos, 7u);
  index.relocate(999, 5, 0);
  EXPECT_EQ(index.find(999).gateway, 5);
  EXPECT_EQ(index.find(999).pos, 0u);
  EXPECT_EQ(index.find(1500).gateway, 3);
  index.erase(0);
  EXPECT_FALSE(index.find(0).valid());
  EXPECT_EQ(index.find(999).gateway, 5);

  // A sparse id still goes to the overflow map: a dense vector that large
  // (~8 TB) could not be allocated, so storing it at all proves the split.
  const std::uint64_t huge = 1'000'000'000'000ull;
  index.store(huge, 6, 2);
  EXPECT_EQ(index.find(huge).gateway, 6);
  index.relocate(huge, 6, 3);
  EXPECT_EQ(index.find(huge).pos, 3u);
  index.erase(huge);
  EXPECT_FALSE(index.find(huge).valid());
  EXPECT_EQ(index.find(1500).gateway, 3);
}

TEST(FlowIndex, SlidesPastRetiredIdsAndRoutesLateOnesToTheMap) {
  // A day's replay: ids 0, 1, 2, ... stored in order, each retired a few
  // ids later, so the window slides a million ids while holding a handful.
  // A straggler stored below the window and an outlier far above it take
  // the overflow map, and every mapping stays findable until erased.
  FlowIndex index;
  constexpr std::uint64_t kDay = 1'000'000;
  constexpr std::uint64_t kLive = 6;
  for (std::uint64_t id = 0; id < kDay; ++id) {
    index.store(id, static_cast<int>(id % 5), static_cast<FlowBlock::Pos>(id % 3));
    if (id >= kLive) {
      const std::uint64_t old = id - kLive;
      ASSERT_EQ(index.find(old).gateway, static_cast<int>(old % 5)) << old;
      index.relocate(old, 9, 1);
      ASSERT_EQ(index.find(old).gateway, 9) << old;
      index.erase(old);
      ASSERT_FALSE(index.find(old).valid()) << old;
    }
  }
  const std::uint64_t straggler = 17;  // long retired, stored again late
  index.store(straggler, 2, 2);
  const std::uint64_t huge = 1'000'000'000'000ull;
  index.store(huge, 3, 3);
  for (std::uint64_t id = kDay; id < kDay + 5000; ++id) {
    index.store(id, 4, static_cast<FlowBlock::Pos>(id % 3));
  }
  EXPECT_EQ(index.find(straggler).gateway, 2);
  EXPECT_EQ(index.find(huge).gateway, 3);
  for (std::uint64_t id = kDay - kLive; id < kDay + 5000; ++id) {
    ASSERT_TRUE(index.find(id).valid()) << id;
  }
  index.erase(straggler);
  index.erase(huge);
  EXPECT_FALSE(index.find(straggler).valid());
  EXPECT_FALSE(index.find(huge).valid());
  EXPECT_TRUE(index.find(kDay).valid());
}

TEST(FlowIndex, GrowsWithoutReserveAndKeepsEveryMapping) {
  // Ids 0, 1, 2, ... all stay live: the window grows geometrically past
  // them, every lookup must still fall through correctly, and a far
  // outlier must still take the overflow map.
  constexpr std::uint64_t kCount = 5000;
  FlowIndex index;
  for (std::uint64_t id = 0; id < kCount; ++id) {
    index.store(id, static_cast<int>(id % 7), static_cast<FlowBlock::Pos>(id));
  }
  const std::uint64_t huge = 1'000'000'000'000ull;
  index.store(huge, 3, 9);
  EXPECT_FALSE(index.find(kCount).valid());  // inside the grown range, never stored
  for (std::uint64_t id = 0; id < kCount; ++id) {
    const FlowIndex::Loc loc = index.find(id);
    ASSERT_EQ(loc.gateway, static_cast<int>(id % 7)) << id;
    ASSERT_EQ(loc.pos, static_cast<FlowBlock::Pos>(id)) << id;
    index.relocate(id, static_cast<int>((id + 1) % 7), static_cast<FlowBlock::Pos>(id + 1));
  }
  for (std::uint64_t id = 0; id < kCount; ++id) {
    const FlowIndex::Loc loc = index.find(id);
    ASSERT_EQ(loc.gateway, static_cast<int>((id + 1) % 7)) << id;
    ASSERT_EQ(loc.pos, static_cast<FlowBlock::Pos>(id + 1)) << id;
    index.erase(id);
    ASSERT_FALSE(index.find(id).valid()) << id;
  }
  EXPECT_EQ(index.find(huge).gateway, 3);
  EXPECT_EQ(index.find(huge).pos, 9u);
  index.relocate(huge, 4, 2);
  EXPECT_EQ(index.find(huge).gateway, 4);
  index.erase(huge);
  EXPECT_FALSE(index.find(huge).valid());
}

INSTANTIATE_TEST_SUITE_P(BothEngines, FluidNetworkTest,
                         ::testing::Values(TestEngine::kReference, TestEngine::kIncremental),
                         [](const ::testing::TestParamInfo<TestEngine>& info) {
                           return std::string(test_engine_name(info.param));
                         });

}  // namespace
}  // namespace insomnia::flow
