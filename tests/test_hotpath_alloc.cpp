// Pins the PR's allocation-freedom contract: once warm, the simulation's
// inner loop — flow arrival -> reallocate -> completion (re)schedule -> pop
// — performs no steady-state heap allocation. A counting global operator
// new/delete measures a post-warm-up window; the only allowed residue is
// the geometric tail of monitoring vectors (the served-rate StepSeries and
// the flow log grow by doubling, so a window of thousands of events may
// see a handful of reallocations, never one-per-event).
//
// Keep this suite out of sanitizer builds' label filters (it is labelled
// test_hotpath_alloc, not test_sim/exec/city): interposing operator new is
// not TSan-friendly.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "bh2/algorithm.h"
#include "flow/fluid_network.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "support/fluid_engines.h"

namespace {

std::atomic<long> g_allocations{0};
std::atomic<bool> g_counting{false};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
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
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationWindow() { g_counting.store(false, std::memory_order_relaxed); }
  long count() const { return g_allocations.load(std::memory_order_relaxed); }
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
/// decision epochs: each fire re-arms `period` later with a {this, int}
/// closure, which std::function keeps in its inline buffer.
class LaneEpochs {
 public:
  LaneEpochs(sim::Simulator& sim, int clients, double period) : sim_(sim), period_(period) {
    for (int c = 0; c < clients; ++c) {
      sim_.at(period * c / clients, [this, c] { epoch(c); });
    }
  }
  LaneEpochs(const LaneEpochs&) = delete;
  LaneEpochs& operator=(const LaneEpochs&) = delete;

  long fired() const { return fired_; }

 private:
  void epoch(int client) {
    ++fired_;
    sim_.after_ordered(period_, [this, client] { epoch(client); });
  }

  sim::Simulator& sim_;
  double period_;
  long fired_ = 0;
};

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
  net.reserve_flows(kWarmup + kMeasured);

  int completed = 0;
  net.set_completion_handler([&completed](const flow::CompletedFlow&) { ++completed; });

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

INSTANTIATE_TEST_SUITE_P(BothEngines, FluidNetworkAlloc,
                         ::testing::Values(flow::TestEngine::kReference,
                                           flow::TestEngine::kIncremental),
                         [](const ::testing::TestParamInfo<flow::TestEngine>& info) {
                           return std::string(flow::test_engine_name(info.param));
                         });

}  // namespace
}  // namespace insomnia
