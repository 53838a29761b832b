// Pins the PR's allocation-freedom contract: once warm, the simulation's
// inner loop — flow arrival -> reallocate -> completion (re)schedule -> pop
// — performs no steady-state heap allocation. A counting global operator
// new/delete measures a post-warm-up window; the only allowed residue is
// the geometric tail of monitoring vectors (the served-rate StepSeries and
// the flow log grow by doubling, so a window of thousands of events may
// see a handful of reallocations, never one-per-event).
//
// The sanitizer jobs run this suite too: the counting operator new forwards
// to malloc, which both sanitizers intercept.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "bh2/algorithm.h"
#include "core/home_policy.h"
#include "core/runtime.h"
#include "core/scenario_presets.h"
#include "flow/fluid_network.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "support/fluid_engines.h"
#include "topology/access_topology.h"
#include "trace/records.h"
#include "trace/synthetic_crawdad.h"

namespace {

std::atomic<long> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};
std::atomic<bool> g_counting{false};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace insomnia {
namespace {

class AllocationWindow {
 public:
  AllocationWindow() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_bytes.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationWindow() { g_counting.store(false, std::memory_order_relaxed); }
  long count() const { return g_allocations.load(std::memory_order_relaxed); }
  std::size_t bytes() const { return g_bytes.load(std::memory_order_relaxed); }
};

TEST(HotPathAllocations, EventQueueScheduleRunCancelRescheduleIsAllocationFree) {
  sim::EventQueue queue;
  int fired = 0;
  // Warm-up: grow the slot pool and heap to the working size. The closures
  // capture at most a pointer and stay in std::function's inline buffer.
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(queue.schedule(1000.0 + i, [&fired] { ++fired; }));
  }
  for (int i = 0; i < 64; i += 2) queue.cancel(ids[static_cast<std::size_t>(i)]);
  while (!queue.empty()) queue.run_next();

  AllocationWindow window;
  double t = 2000.0;
  for (int round = 0; round < 2000; ++round) {
    const sim::EventId a = queue.schedule(t + 1.0, [&fired] { ++fired; });
    const sim::EventId b = queue.schedule(t + 2.0, [&fired] { ++fired; });
    queue.reschedule(a, t + 3.0);  // move past b, closure reused
    queue.cancel(b);
    queue.run_next();
    t += 3.0;
  }
  const long allocations = window.count();
  EXPECT_EQ(allocations, 0) << "steady-state EventQueue traffic must not allocate";
  EXPECT_GT(fired, 0);
}

TEST(HotPathAllocations, DeepHeapRescheduleIsAllocationFree) {
  // The flow engine's master event and the idle checks reschedule millions
  // of times a day against a deep heap: the closure stays in its slot and
  // the heap node moves in place.
  sim::EventQueue queue;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 1024; ++i) ids.push_back(queue.schedule(1e6 + i, [] {}));
  sim::Random rng(9);
  std::vector<double> times;
  for (int i = 0; i < 4096; ++i) times.push_back(rng.uniform(1e6, 2e6));
  const auto reschedule = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(0, 1023));
      queue.reschedule(ids[pick], times[static_cast<std::size_t>(i) % times.size()]);
    }
  };
  reschedule(1000);  // warm-up

  AllocationWindow window;
  reschedule(20000);
  const long allocations = window.count();
  EXPECT_EQ(allocations, 0) << "rescheduling within a deep heap must not allocate";
  EXPECT_EQ(queue.size(), 1024u);
}

TEST(HotPathAllocations, AlwaysOnHistogramRecordNIsAllocationFree) {
  // The live controller's latency histogram records one run of samples per
  // ingest stamp, telemetry on or off.
  obs::Histogram latency(100.0, 1e10, 60, obs::Histogram::Recording::kAlways);
  latency.record_n(1e3, 1);  // warm: this thread's shard slot is assigned
  const bool telemetry = obs::enabled();
  obs::set_enabled(false);

  AllocationWindow window;
  for (int i = 0; i < 10000; ++i) {
    latency.record_n(100.0 + 37.0 * i, static_cast<std::uint64_t>(1 + i % 4096));
  }
  const long allocations = window.count();
  obs::set_enabled(telemetry);
  EXPECT_EQ(allocations, 0) << "an always-on record_n must not allocate";
  EXPECT_GT(latency.snapshot().count, 10000u);
}

/// Periodic per-client timers on the ordered lane, shaped like BH2's
/// decision epochs: the handler is bound once, and each fire re-arms
/// `period` later with the client as the lane event's tag.
class LaneEpochs : public sim::OrderedHandler {
 public:
  LaneEpochs(sim::Simulator& sim, int clients, double period) : sim_(sim), period_(period) {
    sim_.set_ordered_handler(this);
    for (int c = 0; c < clients; ++c) {
      sim_.at(period * c / clients, [this, c] { on_ordered(static_cast<std::uint64_t>(c)); });
    }
  }
  LaneEpochs(const LaneEpochs&) = delete;
  LaneEpochs& operator=(const LaneEpochs&) = delete;

  long fired() const { return fired_; }

  void on_ordered(std::uint64_t client) override {
    ++fired_;
    sim_.after_ordered(period_, client);
  }

 private:
  sim::Simulator& sim_;
  double period_;
  long fired_ = 0;
};

TEST(HotPathAllocations, LaneEpochRearmIsAllocationFree) {
  // Epochs alone: every event is a lane dispatch to the bound handler and
  // a tagged re-arm. Once the ring has its working size, nothing allocates.
  sim::Simulator sim;
  LaneEpochs epochs(sim, 48, 10.0);
  sim.run_until(100.0);  // warm-up: the first epochs leave the heap

  const long before = epochs.fired();
  AllocationWindow window;
  sim.run_until(5000.0);
  const long allocations = window.count();
  EXPECT_EQ(allocations, 0) << "a lane epoch re-arm must not allocate";
  EXPECT_EQ(epochs.fired() - before, 48 * 490);
}

TEST(HotPathAllocations, OrderedLaneMixedWithHeapIsAllocationFree) {
  sim::Simulator sim;
  LaneEpochs epochs(sim, 8, 10.0);
  int fired = 0;
  double t = 0.0;
  const auto churn = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const sim::EventId a = sim.at(t + 1.0, [&fired] { ++fired; });
      const sim::EventId b = sim.at(t + 2.0, [&fired] { ++fired; });
      sim.reschedule(a, t + 3.0);
      sim.cancel(b);
      t += 3.0;
      // Fires the heap event and the ~2.4 lane epochs due by t, each of
      // which appends its successor to the lane.
      sim.run_until(t);
    }
  };
  churn(200);  // warm-up: the first epochs leave the heap, the ring sizes up

  const long epochs_before = epochs.fired();
  AllocationWindow window;
  churn(2000);
  const long allocations = window.count();
  EXPECT_EQ(allocations, 0) << "steady-state heap + lane traffic must not allocate";
  EXPECT_GT(epochs.fired() - epochs_before, 4000);
  EXPECT_EQ(fired, 2200);
}

TEST(HotPathAllocations, LiveDayAppendsGrowWithoutRecopying) {
  // A live paper-default day appended in the controller's 4096-record
  // batches, stepped between batches. The records wait in a ring the size
  // of the lookahead, so the appends make O(log n) allocations totalling a
  // few batches, where a whole-day vector<FlowRecord> would allocate (and
  // re-copy at each doubling) the day.
  const core::ScenarioConfig scenario = core::find_scenario_preset("paper-default").scenario;
  sim::Random topology_rng(3);
  const topo::AccessTopology topology =
      topo::make_overlap_topology(scenario.client_count, scenario.degrees, topology_rng);
  sim::Random trace_rng(5);
  const trace::FlowTrace day = trace::SyntheticCrawdadGenerator(scenario.traffic).generate(trace_rng);
  ASSERT_GT(day.size(), 100000u);
  core::NoSleepPolicy policy;
  core::AccessRuntime runtime(scenario, topology, policy, sim::Random(5),
                              core::AccessRuntime::LiveMode{true});
  runtime.begin_live();
  constexpr std::size_t kBatch = 4096;
  long allocations = 0;
  std::size_t bytes = 0;
  for (std::size_t first = 0; first < day.size(); first += kBatch) {
    const std::size_t count = std::min(kBatch, day.size() - first);
    {
      AllocationWindow window;  // counts the append alone, not the stepping
      runtime.append_live_arrivals(day.data() + first, count);
      allocations += window.count();
      bytes += window.bytes();
    }
    runtime.step_live(day[first + count - 1].start_time);
  }
  runtime.finish_live_input();
  runtime.step_live(scenario.duration + scenario.drain_time);
  EXPECT_EQ(runtime.arrivals_appended(), day.size());
  EXPECT_EQ(runtime.arrivals_consumed(), day.size());

  const double log2_n = std::log2(static_cast<double>(day.size()));
  EXPECT_LE(allocations, static_cast<long>(3 * log2_n)) << "appends must allocate O(log n) times";
  EXPECT_LE(bytes, 4 * kBatch * sizeof(trace::FlowRecord))
      << "appends must not hold, or re-copy, the day's records";
}

/// Array-backed observer (no lookups that allocate) whose loads the test
/// rotates between calls so every decision branch runs.
class ArrayObserver : public bh2::GatewayObserver {
 public:
  double load(int gateway) const override { return loads[static_cast<std::size_t>(gateway)]; }
  bool is_awake(int gateway) const override { return awake[static_cast<std::size_t>(gateway)]; }
  std::vector<double> loads = std::vector<double>(8, 0.0);
  std::vector<bool> awake = std::vector<bool>(8, true);
};

TEST(HotPathAllocations, Bh2DecisionsAreAllocationFree) {
  ArrayObserver observer;
  bh2::Bh2Config config;
  sim::Random rng(17);
  const std::vector<int> reachable{0, 1, 2, 3, 4, 5, 6, 7};
  // Load patterns that steer decide() through the idle-home move, the
  // overload escape, the cooling-remote re-selection and plain stays.
  const std::vector<std::vector<double>> patterns{
      {0.0, 0.2, 0.3, 0.05, 0.0, 0.1, 0.35, 0.02},
      {0.6, 0.7, 0.1, 0.2, 0.05, 0.0, 0.3, 0.01},
      {0.02, 0.05, 0.01, 0.3, 0.2, 0.0, 0.15, 0.04},
      {0.3, 0.9, 0.8, 0.7, 0.6, 0.55, 0.45, 0.0}};
  std::vector<int> actions(3, 0);
  int reroutes = 0;
  const auto run = [&](int calls) {
    for (int i = 0; i < calls; ++i) {
      const auto& pattern = patterns[static_cast<std::size_t>(i) % patterns.size()];
      for (std::size_t g = 0; g < pattern.size(); ++g) observer.loads[g] = pattern[g];
      observer.awake[static_cast<std::size_t>(i % 8)] = (i / 8) % 3 != 0;
      const int home = i % 8;
      const int current = (i / 3) % 8;
      const bh2::Decision d = bh2::decide(home, reachable, current, observer, config, rng,
                                          current == home ? 0.0 : 0.01);
      ++actions[static_cast<std::size_t>(d.action)];
      if (bh2::reroute_on_wake_needed(home, reachable, current, observer, config, rng) >= 0) {
        ++reroutes;
      }
    }
  };
  run(200);  // warm-up: the decision scratch buffers size up

  std::fill(actions.begin(), actions.end(), 0);
  reroutes = 0;
  AllocationWindow window;
  run(10000);
  const long allocations = window.count();
  EXPECT_EQ(allocations, 0) << "decide/reroute_on_wake_needed must reuse their scratch";
  EXPECT_GT(actions[static_cast<std::size_t>(bh2::Action::kStay)], 0);
  EXPECT_GT(actions[static_cast<std::size_t>(bh2::Action::kMoveTo)], 0);
  EXPECT_GT(actions[static_cast<std::size_t>(bh2::Action::kReturnHome)], 0);
  EXPECT_GT(reroutes, 0);
}

// Both engines must hold the allocation-freedom contract: the reference one
// because it always did, the incremental one because its dirty list, gateway
// heap and SoA compaction scratch are all warm-buffer reuse by design.
class FluidNetworkAlloc : public ::testing::TestWithParam<flow::TestEngine> {};

TEST_P(FluidNetworkAlloc, SteadyStateStaysAllocationFree) {
  sim::Simulator sim;
  const auto owned = flow::make_test_engine(GetParam(), sim, {6e6, 6e6});
  flow::FluidNetwork& net = *owned;
  net.set_gateway_serving(0, true);
  net.set_gateway_serving(1, true);
  constexpr int kWarmup = 4000;
  constexpr int kMeasured = 2000;

  int completed = 0;
  flow::FunctionSink count([&completed](const flow::CompletedFlow&) { ++completed; });
  net.set_completion_sink(&count);

  // Two interleaved arrival processes keep 3-6 flows live per gateway, so
  // every arrival triggers advance + water-fill + completion reschedule —
  // the full inner loop — at both gateways.
  flow::FlowId next_id = 0;
  double t = 0.0;
  const auto churn = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const int gateway = i % 2;
      const double cap = (i % 3 == 0) ? 2e6 : 9e6;  // mix capped/uncapped
      net.add_flow(next_id++, i % 7, gateway, 20000.0, cap);
      // Alternating gateways at 22 arrivals/s each versus a ~37 flows/s
      // drain keeps the backlog bounded — genuine steady state.
      t += 0.0225;
      sim.run_until(t);
    }
  };
  churn(kWarmup);

  AllocationWindow window;
  churn(kMeasured);
  const long allocations = window.count();

  // kMeasured arrivals ran ~2x that many events through the queue and the
  // data plane. The pre-refactor path allocated several times per event
  // (hash-set nodes, caps/rates/order vectors, closure churn) — thousands
  // here. Warm buffers leave only the doubling tail of the served-rate
  // series and the flow log.
  EXPECT_LT(allocations, 24) << "inner loop is no longer allocation-free";
  EXPECT_GT(completed, kWarmup);  // the churn really completed flows
}

TEST_P(FluidNetworkAlloc, CompletionDispatchIsAllocationFree) {
  // Zero-byte flows complete inside add_flow, with no water-fill and no
  // series append: each is one advance plus one direct call into the sink,
  // which (like the runtime's) reads the flow and re-enters the network.
  sim::Simulator sim;
  const auto owned = flow::make_test_engine(GetParam(), sim, {6e6, 6e6});
  flow::FluidNetwork& net = *owned;
  net.set_gateway_serving(0, true);
  net.set_gateway_serving(1, true);

  struct Sink final : flow::CompletionSink {
    flow::FluidNetwork* net = nullptr;
    long completed = 0;
    double seconds = 0.0;
    void on_flow_complete(const flow::CompletedFlow& flow) override {
      ++completed;
      seconds += flow.duration() + net->last_activity(flow.gateway);
    }
  } sink;
  sink.net = &net;
  net.set_completion_sink(&sink);

  flow::FlowId next_id = 0;
  const auto churn = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) net.add_flow(next_id++, i % 7, i % 2, 0.0, 9e6);
  };
  churn(1000);  // warm-up

  AllocationWindow window;
  churn(20000);
  const long allocations = window.count();
  EXPECT_EQ(allocations, 0) << "a completion dispatch must not allocate";
  EXPECT_EQ(sink.completed, 21000);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, FluidNetworkAlloc,
                         ::testing::Values(flow::TestEngine::kReference,
                                           flow::TestEngine::kIncremental),
                         [](const ::testing::TestParamInfo<flow::TestEngine>& info) {
                           return std::string(flow::test_engine_name(info.param));
                         });

}  // namespace
}  // namespace insomnia
