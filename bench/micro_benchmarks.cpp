// google-benchmark micro-benchmarks for the library's hot paths: the fluid
// data plane, the event queue, BH2 decisions, the DSL bit-loader, and the
// cover solver. These guard the simulator's throughput (a full evaluation
// replays ~10^6 flow events per simulated day).
//
// A counting global operator new feeds the "allocs_per_op" counter on the
// steady-state benchmarks — the inner simulation loop is contractually
// allocation-free (see tests/test_hotpath_alloc.cpp), and these counters
// make a regression visible in the same run that times it.
#include <atomic>
#include <cstdlib>
#include <new>

#include <benchmark/benchmark.h>

// The counting operator new below is malloc-backed; once the compiler
// inlines it, paired deletes look like free() on a "mismatched" pointer.
// The pairing is correct — silence the false positive for this TU.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include "bh2/algorithm.h"
#include "dsl/bitloading.h"
#include "dsl/crosstalk.h"
#include "dslam/dslam.h"
#include "flow/incremental_network.h"
#include "flow/max_min.h"
#include "opt/gateway_cover.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "stats/timeseries.h"

std::atomic<long> g_allocations{0};

namespace {

using namespace insomnia;

void BM_MaxMinAllocate(benchmark::State& state) {
  sim::Random rng(1);
  std::vector<double> caps;
  for (int i = 0; i < state.range(0); ++i) caps.push_back(rng.uniform(0.1, 10.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::max_min_allocate(6.0, caps));
  }
}
BENCHMARK(BM_MaxMinAllocate)->Arg(4)->Arg(32)->Arg(256);

void BM_MaxMinAllocateInto(benchmark::State& state) {
  // The incremental form: caller-owned scratch and output, zero
  // steady-state allocations (the water-fill the fluid plane runs inline).
  sim::Random rng(1);
  std::vector<double> caps;
  for (int i = 0; i < state.range(0); ++i) caps.push_back(rng.uniform(0.1, 10.0));
  flow::MaxMinScratch scratch;
  std::vector<double> rates;
  max_min_allocate_into(6.0, caps, scratch, rates);  // warm the buffers
  const long before = g_allocations.load();
  for (auto _ : state) {
    max_min_allocate_into(6.0, caps, scratch, rates);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(g_allocations.load() - before), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MaxMinAllocateInto)->Arg(4)->Arg(32)->Arg(256);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < state.range(0); ++i) {
      queue.schedule(static_cast<double>(i % 97), [] {});
    }
    while (!queue.empty()) queue.run_next();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

void BM_EventQueueReschedule(benchmark::State& state) {
  // The dedicated reschedule path: the closure stays in its slot and the
  // heap node moves in place — the pattern the gateway completion event
  // hits on every flow arrival and departure.
  sim::EventQueue queue;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < state.range(0); ++i) {
    ids.push_back(queue.schedule(1e6 + i, [] {}));
  }
  sim::Random rng(9);
  std::vector<double> new_times;
  for (int i = 0; i < 1024; ++i) new_times.push_back(rng.uniform(1e6, 2e6));
  std::size_t pick = 0;
  const long before = g_allocations.load();
  for (auto _ : state) {
    const sim::EventId id = ids[pick % ids.size()];
    benchmark::DoNotOptimize(queue.reschedule(id, new_times[pick % new_times.size()]));
    ++pick;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(g_allocations.load() - before), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EventQueueReschedule)->Arg(64)->Arg(1024);

void BM_FluidNetworkChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    flow::IncrementalFluidNetwork net(sim, {6e6});
    net.set_gateway_serving(0, true);
    const int flows = static_cast<int>(state.range(0));
    for (int i = 0; i < flows; ++i) {
      sim.at(i * 0.05, [&net, i] {
        net.add_flow(static_cast<flow::FlowId>(i), i % 7, 0, 1500.0, 12e6);
      });
    }
    sim.run_until(flows * 0.05 + 10.0);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FluidNetworkChurn)->Arg(1000)->Arg(10000);

void BM_FluidNetworkSteadyState(benchmark::State& state) {
  // The full inner loop in steady state — arrival, water-fill, completion
  // reschedule, completion pop — after the warm-up has grown every buffer.
  // allocs_per_op must stay ~0 (only the monitoring series' doubling tail).
  sim::Simulator sim;
  flow::IncrementalFluidNetwork net(sim, {6e6});
  net.set_gateway_serving(0, true);
  net.reserve_flows(1u << 22);
  flow::FlowId id = 0;
  double t = 0.0;
  const auto one_arrival = [&] {
    net.add_flow(id, static_cast<int>(id % 7), 0, 20000.0, (id % 3 == 0) ? 2e6 : 9e6);
    ++id;
    // 22 arrivals/s against a ~37 flows/s drain: a handful of concurrent
    // flows, stable backlog — genuine steady state.
    t += 0.045;
    sim.run_until(t);
  };
  for (int i = 0; i < 4000; ++i) one_arrival();  // warm up
  const long before = g_allocations.load();
  for (auto _ : state) one_arrival();
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(g_allocations.load() - before), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FluidNetworkSteadyState);

void BM_StepSeriesIntegral(benchmark::State& state) {
  stats::StepSeries series(0.0, 0.0);
  sim::Random rng(3);
  double t = 0.0;
  for (int i = 0; i < state.range(0); ++i) {
    t += rng.exponential(1.0);
    series.set(t, rng.uniform(0.0, 10.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(series.integral(t * 0.4, t * 0.6));
  }
}
BENCHMARK(BM_StepSeriesIntegral)->Arg(1000)->Arg(100000);

class BenchObserver : public bh2::GatewayObserver {
 public:
  double load(int gateway) const override { return 0.01 * (gateway % 40); }
  bool is_awake(int gateway) const override { return gateway % 3 != 0; }
};

void BM_Bh2Decide(benchmark::State& state) {
  BenchObserver observer;
  bh2::Bh2Config config;
  sim::Random rng(5);
  const std::vector<int> reachable{0, 1, 2, 3, 4, 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(bh2::decide(0, reachable, 0, observer, config, rng));
  }
}
BENCHMARK(BM_Bh2Decide);

void BM_DslamWakeRemap(benchmark::State& state) {
  sim::Random rng(7);
  dslam::DslamConfig config;
  config.mode = dslam::SwitchMode::kKSwitch;
  for (auto _ : state) {
    dslam::Dslam dslam(config, rng);
    for (int line = 0; line < 48; ++line) dslam.line_activated(line % 48);
    for (int line = 0; line < 48; line += 2) dslam.line_deactivated(line);
    benchmark::DoNotOptimize(dslam.awake_card_count());
  }
}
BENCHMARK(BM_DslamWakeRemap);

void BM_SyncLine(benchmark::State& state) {
  std::vector<dsl::LineConfig> lines;
  for (int i = 0; i < 24; ++i) lines.push_back({400.0 + i * 5.0, i + 1});
  const dsl::CrosstalkModel model(lines, dsl::Vdsl2Parameters::profile_17a());
  std::vector<bool> active(24, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dsl::sync_line(model, 0, active, dsl::ServiceProfile::mbps62()));
  }
}
BENCHMARK(BM_SyncLine);

void BM_GreedyCover(benchmark::State& state) {
  sim::Random rng(11);
  opt::GatewayCoverProblem problem;
  problem.capacity.assign(40, 6e6);
  for (int u = 0; u < 272; ++u) {
    opt::UserDemand demand;
    demand.demand = rng.uniform(1e3, 2e5);
    for (int g = 0; g < 40; ++g) {
      if (rng.bernoulli(0.14)) demand.feasible.push_back(g);
    }
    if (demand.feasible.empty()) demand.feasible.push_back(rng.uniform_int(0, 39));
    problem.users.push_back(std::move(demand));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::solve_greedy(problem));
  }
}
BENCHMARK(BM_GreedyCover);

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

BENCHMARK_MAIN();
