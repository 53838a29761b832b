// Phase profiler contracts: scopes fold into name-sorted per-phase totals,
// stop() is idempotent, nothing records while disabled, force-mode keeps
// measuring for the perf harness, and trace events appear only when tracing
// is armed.
#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "exec/sweep_runner.h"
#include "obs/obs.h"
#include "obs/profiler.h"

namespace insomnia::obs {
namespace {

const PhaseTotal* find_phase(const std::vector<PhaseTotal>& phases,
                             const std::string& name) {
  for (const PhaseTotal& phase : phases) {
    if (phase.name == name) return &phase;
  }
  return nullptr;
}

class ObsProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef INSOMNIA_OBS_DISABLED
    GTEST_SKIP() << "observability compiled out (-DINSOMNIA_OBS=OFF)";
#endif
    set_enabled(true);
    disable_tracing();
    reset_profiler();
  }
};

TEST_F(ObsProfilerTest, ScopeRecordsPhaseTotal) {
  {
    OBS_SCOPE("test.phase.a");
  }
  {
    OBS_SCOPE("test.phase.a");
  }
  const auto phases = phase_totals();
  const PhaseTotal* a = find_phase(phases, "test.phase.a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->count, 2u);
}

TEST_F(ObsProfilerTest, PhaseTotalsAreNameSorted) {
  {
    OBS_SCOPE("test.z");
  }
  {
    OBS_SCOPE("test.a");
  }
  const auto phases = phase_totals();
  for (std::size_t i = 1; i < phases.size(); ++i) {
    EXPECT_LT(phases[i - 1].name, phases[i].name);
  }
}

TEST_F(ObsProfilerTest, StopIsIdempotent) {
  ScopeTimer timer("test.stop");
  const std::uint64_t first = timer.stop();
  const std::uint64_t second = timer.stop();
  EXPECT_EQ(first, second);
  const auto phases = phase_totals();
  const PhaseTotal* phase = find_phase(phases, "test.stop");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->count, 1u);  // recorded once, not per stop() call
}

TEST_F(ObsProfilerTest, DisabledScopeRecordsNothing) {
  set_enabled(false);
  {
    OBS_SCOPE("test.disabled");
  }
  ScopeTimer timer("test.disabled.timer");
  EXPECT_EQ(timer.stop(), 0u);
  set_enabled(true);
  EXPECT_EQ(find_phase(phase_totals(), "test.disabled"), nullptr);
  EXPECT_EQ(find_phase(phase_totals(), "test.disabled.timer"), nullptr);
}

TEST_F(ObsProfilerTest, ForcedTimerMeasuresWhileDisabled) {
  set_enabled(false);
  ScopeTimer timer("test.forced", /*force=*/true);
  // Burn a little time so the measured duration cannot round to zero.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const std::uint64_t ns = timer.stop();
  set_enabled(true);
  EXPECT_GT(ns, 0u);
  // Measured but not recorded: the phase table must stay clean.
  EXPECT_EQ(find_phase(phase_totals(), "test.forced"), nullptr);
}

TEST_F(ObsProfilerTest, WorkerThreadsRegisterNamedTracks) {
  exec::SweepRunner runner(3);
  runner.run(8, [](std::size_t i) {
    OBS_SCOPE("test.worker.shard");
    return i;
  });
  const TraceSnapshot snap = trace_snapshot();
  bool found_worker = false;
  for (const TraceSnapshot::Thread& thread : snap.threads) {
    if (thread.name.rfind("worker-", 0) == 0) found_worker = true;
  }
  EXPECT_TRUE(found_worker);
}

TEST_F(ObsProfilerTest, TraceEventsOnlyWhenTracingArmed) {
  {
    OBS_SCOPE("test.untraced");
  }
  EXPECT_TRUE(trace_snapshot().events.empty());

  enable_tracing();
  {
    OBS_SCOPE("test.traced");
  }
  const TraceSnapshot snap = trace_snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_STREQ(snap.events[0].name, "test.traced");
  // reset_profiler clears the buffers (it does not disarm tracing; the
  // fixture's reset keeps later tests independent anyway).
  reset_profiler();
  EXPECT_TRUE(trace_snapshot().events.empty());
}

TEST_F(ObsProfilerTest, CounterEventsAreCaptured) {
  enable_tracing();
  emit_counter_event("test.progress", 3.0);
  emit_counter_event("test.progress", 7.0);
  const TraceSnapshot snap = trace_snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].value, 3.0);
  EXPECT_EQ(snap.counters[1].value, 7.0);
  EXPECT_LE(snap.counters[0].ts_ns, snap.counters[1].ts_ns);
}

TEST_F(ObsProfilerTest, PhaseTotalsFoldAcrossThreads) {
  exec::SweepRunner runner(4);
  runner.run(16, [](std::size_t i) {
    OBS_SCOPE("test.fold.shard");
    return i;
  });
  const auto phases = phase_totals();
  const PhaseTotal* phase = find_phase(phases, "test.fold.shard");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->count, 16u);
}

}  // namespace
}  // namespace insomnia::obs
