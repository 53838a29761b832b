// The metrics registry contracts: relaxed shard slots fold to exact totals
// under any thread assignment, the registry hands back the same object for
// the same name forever, histogram quantiles respect the observed range, and
// the whole layer is a no-op while obs::set_enabled(false) — except an
// always-on histogram, which records in every build and setting.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "exec/sweep_runner.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/rss.h"

namespace insomnia::obs {
namespace {

/// Every test starts from a clean, enabled registry (the suite shares one
/// process-wide instance).
class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef INSOMNIA_OBS_DISABLED
    GTEST_SKIP() << "observability compiled out (-DINSOMNIA_OBS=OFF)";
#endif
    set_enabled(true);
    Registry::global().reset_values();
  }
};

TEST_F(ObsMetricsTest, CounterAccumulatesAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsMetricsTest, CounterFoldsExactlyAcrossThreads) {
  // Identical recording work sharded over 1 and 4 threads must fold to the
  // same total: integer sums are order- and shard-independent.
  constexpr std::size_t kShards = 64;
  constexpr std::uint64_t kPerShard = 1000;
  std::uint64_t totals[2] = {0, 0};
  int which = 0;
  for (int threads : {1, 4}) {
    Counter c;
    exec::SweepRunner runner(threads);
    runner.run(kShards, [&](std::size_t i) {
      for (std::uint64_t n = 0; n < kPerShard; ++n) c.add();
      return i;
    });
    totals[which++] = c.value();
  }
  EXPECT_EQ(totals[0], kShards * kPerShard);
  EXPECT_EQ(totals[0], totals[1]);
}

TEST_F(ObsMetricsTest, DisabledCounterRecordsNothing) {
  Counter c;
  set_enabled(false);
  c.add(100);
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsMetricsTest, GaugeSetAddReset) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.add(0.5);
  EXPECT_EQ(g.value(), 3.0);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST_F(ObsMetricsTest, GaugeDisabledIsNoOp) {
  Gauge g;
  g.set(7.0);
  set_enabled(false);
  g.set(9.0);
  g.add(1.0);
  set_enabled(true);
  EXPECT_EQ(g.value(), 7.0);
}

TEST_F(ObsMetricsTest, EmptyHistogramSnapshotIsAllZero) {
  Histogram h(1.0, 1000.0, 10);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST_F(ObsMetricsTest, SingleValueReadsBackExactly) {
  // The bin representative clamps to [min, max], so one recorded value must
  // come back exactly at every quantile.
  Histogram h(1.0, 1e6, 30);
  h.record(1234.5);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 1234.5);
  EXPECT_EQ(s.max, 1234.5);
  EXPECT_EQ(s.sum, 1234.5);
  EXPECT_EQ(s.p50, 1234.5);
  EXPECT_EQ(s.p95, 1234.5);
  EXPECT_EQ(s.p99, 1234.5);
}

TEST_F(ObsMetricsTest, UnderflowAndOverflowClampToObservedRange) {
  Histogram h(10.0, 100.0, 4);
  h.record(0.5);     // below lo -> underflow bin
  h.record(-3.0);    // negative -> underflow bin
  h.record(5000.0);  // >= hi -> overflow bin
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.min, -3.0);
  EXPECT_EQ(s.max, 5000.0);
  // Underflow representative is the observed min, overflow the observed max.
  EXPECT_EQ(s.p50, -3.0);
  EXPECT_EQ(s.p99, 5000.0);
}

TEST_F(ObsMetricsTest, QuantilesAreMonotoneAndWithinRange) {
  Histogram h(1.0, 1e6, 40);
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 1000.0);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p99, s.max);
  // p50 of 1..1000 must land near 500 within one log-spaced bin's width.
  EXPECT_GT(s.p50, 300.0);
  EXPECT_LT(s.p50, 800.0);
}

TEST_F(ObsMetricsTest, HistogramFoldIsThreadCountInvariant) {
  // Same multiset of deterministic values recorded under different thread
  // counts must produce bit-identical snapshots.
  constexpr std::size_t kShards = 32;
  Histogram::Snapshot snaps[2];
  int which = 0;
  for (int threads : {1, 4}) {
    Histogram h(1.0, 1e9, 50);
    exec::SweepRunner runner(threads);
    runner.run(kShards, [&](std::size_t i) {
      for (int k = 0; k < 100; ++k) {
        h.record(static_cast<double>((i + 1) * 37 + k));
      }
      return i;
    });
    snaps[which++] = h.snapshot();
  }
  EXPECT_EQ(snaps[0].count, snaps[1].count);
  EXPECT_EQ(snaps[0].min, snaps[1].min);
  EXPECT_EQ(snaps[0].max, snaps[1].max);
  EXPECT_EQ(snaps[0].sum, snaps[1].sum);
  EXPECT_EQ(snaps[0].p50, snaps[1].p50);
  EXPECT_EQ(snaps[0].p95, snaps[1].p95);
  EXPECT_EQ(snaps[0].p99, snaps[1].p99);
}

TEST_F(ObsMetricsTest, HistogramDisabledRecordsNothing) {
  Histogram h(1.0, 100.0, 5);
  set_enabled(false);
  h.record(50.0);
  set_enabled(true);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST_F(ObsMetricsTest, RegistryReturnsSameObjectForSameName) {
  Counter& a = counter("test.registry.same");
  Counter& b = counter("test.registry.same");
  EXPECT_EQ(&a, &b);
  Gauge& ga = gauge("test.registry.gauge");
  Gauge& gb = gauge("test.registry.gauge");
  EXPECT_EQ(&ga, &gb);
  Histogram& ha = histogram("test.registry.hist", 1.0, 100.0, 5);
  // Shape parameters of a later lookup are ignored; same object comes back.
  Histogram& hb = histogram("test.registry.hist", 2.0, 7.0, 3);
  EXPECT_EQ(&ha, &hb);
  EXPECT_EQ(hb.lo(), 1.0);
  EXPECT_EQ(hb.bins(), 5);
}

TEST_F(ObsMetricsTest, SnapshotIsNameSortedAndResetValuesZeroes) {
  counter("test.snap.b").add(2);
  counter("test.snap.a").add(1);
  const MetricsSnapshot snap = Registry::global().snapshot();
  std::size_t index_a = snap.counters.size();
  std::size_t index_b = snap.counters.size();
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (snap.counters[i].name == "test.snap.a") index_a = i;
    if (snap.counters[i].name == "test.snap.b") index_b = i;
  }
  ASSERT_LT(index_a, snap.counters.size());
  ASSERT_LT(index_b, snap.counters.size());
  EXPECT_LT(index_a, index_b);
  EXPECT_EQ(snap.counters[index_a].value, 1u);

  Counter& cached = counter("test.snap.a");
  Registry::global().reset_values();
  EXPECT_EQ(cached.value(), 0u);  // the object survives, zeroed
}

TEST_F(ObsMetricsTest, RssPeakBytesReportsOnLinux) {
#ifdef __linux__
  EXPECT_GT(rss_peak_bytes(), 0u);
#else
  EXPECT_EQ(rss_peak_bytes(), 0u);
#endif
}

// Always-on histograms record whatever the telemetry switch says, so these
// cases run (not skip) under -DINSOMNIA_OBS=OFF too.
TEST(AlwaysOnHistogram, SingleSampleReadsBackExactlyWithTelemetryOff) {
  set_enabled(false);
  Histogram h(100.0, 1e10, 60, Histogram::Recording::kAlways);
  h.record(5000.0);
  const Histogram::Snapshot s = h.snapshot();
  set_enabled(true);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 5000.0);
  EXPECT_EQ(s.max, 5000.0);
  EXPECT_EQ(s.sum, 5000.0);
  EXPECT_EQ(s.p50, 5000.0);
  EXPECT_EQ(s.p99, 5000.0);
}

TEST(AlwaysOnHistogram, RecordNEqualsNRecords) {
  set_enabled(false);
  Histogram batched(100.0, 1e10, 60, Histogram::Recording::kAlways);
  Histogram single(100.0, 1e10, 60, Histogram::Recording::kAlways);
  batched.record_n(1000.0, 90);
  batched.record_n(1e6, 10);
  batched.record_n(7.0, 0);  // records nothing, not even an extremum
  for (int i = 0; i < 90; ++i) single.record(1000.0);
  for (int i = 0; i < 10; ++i) single.record(1e6);
  const Histogram::Snapshot a = batched.snapshot();
  const Histogram::Snapshot b = single.snapshot();
  set_enabled(true);
  EXPECT_EQ(a.count, 100u);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
  // Quantiles read the geometric midpoint of the holding log bin (a factor
  // of ~1.36 wide here), clamped to the observed range.
  EXPECT_GT(a.p50, 1000.0 / 1.4);
  EXPECT_LT(a.p50, 1000.0 * 1.4);
  EXPECT_GT(a.p99, 1e6 / 1.4);
  EXPECT_LE(a.p99, 1e6);
}

}  // namespace
}  // namespace insomnia::obs
