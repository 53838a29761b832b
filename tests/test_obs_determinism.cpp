// The observability layer must never change results: RunReport JSON is bit
// identical with obs enabled and disabled, and the metrics the layer folds
// out of a run are themselves invariant to the worker thread count.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profiler.h"

namespace insomnia::obs {
namespace {

core::RunSpec small_spec(int threads) {
  core::RunSpec spec;
  core::ScenarioConfig scenario;
  scenario.client_count = 48;
  scenario.gateway_count = 8;
  scenario.degrees.node_count = 8;
  scenario.degrees.mean_degree = 4.0;
  scenario.traffic.client_count = 48;
  scenario.dslam.line_cards = 4;
  scenario.dslam.ports_per_card = 2;
  spec.scenario = scenario;
  spec.scheme = "bh2-kswitch";
  spec.seed = 42;
  spec.runs = 4;
  spec.bins = 8;
  spec.threads = threads;
  return spec;
}

TEST(ObsDeterminism, RunReportJsonIsIdenticalObsOnVsOff) {
  // The default to_json() (no telemetry block) is what golden byte-compare
  // consumers read; flipping the master switch must not move a single byte.
  set_enabled(true);
  const std::string with_obs = core::Engine().run(small_spec(2)).to_json();
  set_enabled(false);
  const std::string without_obs = core::Engine().run(small_spec(2)).to_json();
  set_enabled(true);
  EXPECT_EQ(with_obs, without_obs);
}

#ifndef INSOMNIA_OBS_DISABLED

TEST(ObsDeterminism, FoldedMetricsAreThreadCountInvariant) {
  // The same engine run sharded over 1 and 4 workers must fold the exact
  // same event counts and day histogram: collection points add integer
  // deltas, and the histogram sees the same deterministic multiset.
  set_enabled(true);
  std::uint64_t events[2];
  Histogram::Snapshot days[2];
  int which = 0;
  for (int threads : {1, 4}) {
    Registry::global().reset_values();
    reset_profiler();
    (void)core::Engine().run(small_spec(threads));
    events[which] = counter("sim.events").value();
    days[which] = histogram("day.events").snapshot();
    ++which;
  }
  EXPECT_GT(events[0], 0u);
  EXPECT_EQ(events[0], events[1]);
  // "day.events" counts simulated days only: one scheme day per run, none
  // for the traffic-free baseline.
  const auto runs = static_cast<std::uint64_t>(small_spec(1).runs);
  EXPECT_EQ(days[0].count, runs);
  EXPECT_EQ(days[1].count, runs);
  EXPECT_EQ(days[0].min, days[1].min);
  EXPECT_EQ(days[0].max, days[1].max);
  EXPECT_EQ(days[0].sum, days[1].sum);
  EXPECT_EQ(days[0].p50, days[1].p50);
  EXPECT_EQ(days[0].p99, days[1].p99);
}

TEST(ObsDeterminism, PhaseCountsAreThreadCountInvariant) {
  set_enabled(true);
  std::uint64_t day_counts[2];
  int which = 0;
  for (int threads : {1, 4}) {
    Registry::global().reset_values();
    reset_profiler();
    (void)core::Engine().run(small_spec(threads));
    std::uint64_t count = 0;
    for (const PhaseTotal& phase : phase_totals()) {
      if (phase.name == "engine.day") count = phase.count;
    }
    day_counts[which++] = count;
  }
  EXPECT_EQ(day_counts[0], 4u);  // one per run in the spec
  EXPECT_EQ(day_counts[0], day_counts[1]);
}

#endif  // INSOMNIA_OBS_DISABLED

}  // namespace
}  // namespace insomnia::obs
