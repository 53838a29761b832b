// Statistical validation of the synthetic CRAWDAD stand-in against the
// paper's published aggregates (Figs. 3 and 4). Tolerances are generous —
// these are stochastic targets — but tight enough that a regression in the
// behaviour model trips them.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/scenario_presets.h"
#include "sim/random.h"
#include "support/trace_sort_oracle.h"
#include "topology/access_topology.h"
#include "trace/analysis.h"
#include "trace/synthetic_crawdad.h"
#include "util/error.h"
#include "util/units.h"

namespace insomnia::trace {
namespace {

class SyntheticTraceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticTraceConfig config;
    sim::Random rng(1234);
    flows_ = new FlowTrace(SyntheticCrawdadGenerator(config).generate(rng));
    homes_ = new std::vector<int>(
        topo::assign_homes_balanced(config.client_count, 40, rng));
  }
  static void TearDownTestSuite() {
    delete flows_;
    delete homes_;
    flows_ = nullptr;
    homes_ = nullptr;
  }

  static FlowTrace* flows_;
  static std::vector<int>* homes_;
};

FlowTrace* SyntheticTraceFixture::flows_ = nullptr;
std::vector<int>* SyntheticTraceFixture::homes_ = nullptr;

TEST_F(SyntheticTraceFixture, FlowsAreSortedByTime) {
  EXPECT_TRUE(std::is_sorted(flows_->begin(), flows_->end(),
                             [](const FlowRecord& a, const FlowRecord& b) {
                               return a.start_time < b.start_time;
                             }));
}

TEST_F(SyntheticTraceFixture, AllRecordsWellFormed) {
  for (const FlowRecord& f : *flows_) {
    ASSERT_GE(f.start_time, 0.0);
    ASSERT_LT(f.start_time, 86400.0);
    ASSERT_GE(f.client, 0);
    ASSERT_LT(f.client, 272);
    ASSERT_GT(f.bytes, 0.0);
  }
}

TEST_F(SyntheticTraceFixture, PeakUtilizationMatchesFig3) {
  const auto util = hourly_gateway_utilization(*flows_, *homes_, 40, util::mbps(6.0));
  const double peak = *std::max_element(util.begin(), util.end());
  // Fig. 3 peaks around 7 %; accept the 4-10 % band.
  EXPECT_GT(peak, 0.04);
  EXPECT_LT(peak, 0.10);
}

TEST_F(SyntheticTraceFixture, NightUtilizationIsLow) {
  const auto util = hourly_gateway_utilization(*flows_, *homes_, 40, util::mbps(6.0));
  for (int h = 1; h <= 5; ++h) EXPECT_LT(util[static_cast<std::size_t>(h)], 0.015);
}

TEST_F(SyntheticTraceFixture, DiurnalContrastIsStrong) {
  const auto util = hourly_gateway_utilization(*flows_, *homes_, 40, util::mbps(6.0));
  const double peak = *std::max_element(util.begin(), util.end());
  const double night = util[3];
  EXPECT_GT(peak / std::max(night, 1e-6), 5.0);
}

TEST_F(SyntheticTraceFixture, MostIdleTimeInShortGapsAtPeak) {
  const auto packets =
      SyntheticCrawdadGenerator::expand_to_packets(*flows_, util::mbps(6.0));
  const auto hist = inter_packet_gap_idle_histogram(packets, *homes_, 40,
                                                    util::hours(16.0), util::hours(17.0));
  // §2.4: "for more than 80 % of the time the inter-packet gaps are lower
  // than 60 s" despite ~1 % utilization.
  EXPECT_GT(idle_fraction_below(hist, 60.0), 0.80);
}

TEST_F(SyntheticTraceFixture, KeepAlivesDominateFlowCount) {
  // Continuous light traffic: most records are small keep-alives.
  std::size_t small = 0;
  for (const FlowRecord& f : *flows_) {
    if (f.bytes < 1000.0) ++small;
  }
  EXPECT_GT(static_cast<double>(small) / static_cast<double>(flows_->size()), 0.5);
}

TEST_F(SyntheticTraceFixture, FlowSizesAreHeavyTailed) {
  double total = 0.0;
  std::vector<double> sizes;
  for (const FlowRecord& f : *flows_) {
    total += f.bytes;
    sizes.push_back(f.bytes);
  }
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  double top1 = 0.0;
  for (std::size_t i = 0; i < sizes.size() / 100; ++i) top1 += sizes[i];
  // The top 1 % of records carry a grossly disproportionate share of the
  // bytes (most records are keep-alives of a few hundred bytes).
  EXPECT_GT(top1 / total, 0.35);
}

TEST(SyntheticTrace, DeterministicGivenSeed) {
  SyntheticTraceConfig config;
  config.client_count = 20;
  SyntheticCrawdadGenerator generator(config);
  sim::Random a(7);
  sim::Random b(7);
  const FlowTrace ta = generator.generate(a);
  const FlowTrace tb = generator.generate(b);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_DOUBLE_EQ(ta[i].start_time, tb[i].start_time);
    EXPECT_EQ(ta[i].client, tb[i].client);
    EXPECT_DOUBLE_EQ(ta[i].bytes, tb[i].bytes);
  }
}

TEST(SyntheticTrace, AlwaysOnClientsChatterAllNight) {
  SyntheticTraceConfig config;
  config.client_count = 30;
  config.always_on_fraction = 1.0;  // force the presence behaviour
  SyntheticCrawdadGenerator generator(config);
  sim::Random rng(5);
  const FlowTrace flows = generator.generate(rng);
  // Every client has traffic in the dead of night.
  std::vector<bool> active(30, false);
  for (const FlowRecord& f : flows) {
    if (f.start_time > util::hours(2.0) && f.start_time < util::hours(4.0)) {
      active[static_cast<std::size_t>(f.client)] = true;
    }
  }
  EXPECT_EQ(std::count(active.begin(), active.end(), true), 30);
}

TEST(SyntheticTrace, PacketExpansionPreservesBytes) {
  FlowTrace flows{{0.0, 0, 4000.0}, {10.0, 1, 200.0}};
  const PacketTrace packets =
      SyntheticCrawdadGenerator::expand_to_packets(flows, util::mbps(6.0));
  double bytes = 0.0;
  for (const PacketRecord& p : packets) bytes += p.bytes;
  EXPECT_DOUBLE_EQ(bytes, 4200.0);
}

TEST(SyntheticTrace, PacketExpansionSpacesByServiceRate) {
  FlowTrace flows{{0.0, 0, 3000.0}};
  const PacketTrace packets =
      SyntheticCrawdadGenerator::expand_to_packets(flows, 12000.0);  // 1500 B/s
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_DOUBLE_EQ(packets[0].time, 0.0);
  EXPECT_DOUBLE_EQ(packets[1].time, 1.0);
}

TEST(SyntheticTrace, ConfigValidation) {
  SyntheticTraceConfig config;
  config.client_count = 0;
  EXPECT_THROW(SyntheticCrawdadGenerator{config}, util::InvalidArgument);
  config = {};
  config.flow_size_min = 10.0;
  config.flow_size_max = 5.0;
  EXPECT_THROW(SyntheticCrawdadGenerator{config}, util::InvalidArgument);
  // An infinite duration passes "> 0" and would keep every client's session
  // loop from ever reaching its end; NaN must stay rejected too.
  for (const double duration : {std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(), 0.0, -1.0}) {
    config = {};
    config.duration = duration;
    EXPECT_THROW(SyntheticCrawdadGenerator{config}, util::InvalidArgument) << duration;
  }
}

// --- Ordering: the counting pass against std::sort / std::stable_sort ------

/// Field by field: FlowRecord has padding bytes, so memcmp would report
/// mismatches between equal records.
void expect_same_records(const FlowTrace& actual, const FlowTrace& expected,
                         const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].start_time, expected[i].start_time) << label << " record " << i;
    ASSERT_EQ(actual[i].client, expected[i].client) << label << " record " << i;
    ASSERT_EQ(actual[i].bytes, expected[i].bytes) << label << " record " << i;
  }
}

/// generate() must equal the emit-then-std::sort oracle. std::sort orders
/// ties arbitrarily, so the comparison also checks the trace has none.
void expect_matches_sort_oracle(const SyntheticTraceConfig& config, std::uint64_t seed,
                                const std::string& label) {
  const SyntheticCrawdadGenerator generator(config);
  sim::Random rng(seed);
  sim::Random oracle_rng(seed);
  const FlowTrace flows = generator.generate(rng);
  const FlowTrace sorted = generate_by_sorting(generator, oracle_rng);
  expect_same_records(flows, sorted, label);
  for (std::size_t i = 1; i < flows.size(); ++i) {
    ASSERT_LT(flows[i - 1].start_time, flows[i].start_time) << label << " tie at " << i;
  }
  // Both paths drew the same values from the stream.
  EXPECT_EQ(rng.engine()(), oracle_rng.engine()()) << label;
}

constexpr std::uint64_t kOracleSeeds = 12;

class PresetSortOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(PresetSortOracle, DaysMatchEmitThenSort) {
  const SyntheticTraceConfig config = core::find_scenario_preset(GetParam()).scenario.traffic;
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    expect_matches_sort_oracle(config, seed, GetParam() + " seed " + std::to_string(seed));
  }
}

std::vector<std::string> preset_names() {
  std::vector<std::string> names;
  for (const core::ScenarioPreset& preset : core::scenario_presets()) {
    names.push_back(preset.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(Presets, PresetSortOracle, ::testing::ValuesIn(preset_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(SortOracle, EdgeConfigsMatchEmitThenSort) {
  SyntheticTraceConfig one_client;
  one_client.client_count = 1;
  SyntheticTraceConfig all_always_on;
  all_always_on.client_count = 40;
  all_always_on.always_on_fraction = 1.0;
  SyntheticTraceConfig one_minute;
  one_minute.duration = 60.0;
  one_minute.always_on_fraction = 0.5;  // sessions that start at t = 0
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    const std::string at = " seed " + std::to_string(seed);
    expect_matches_sort_oracle(one_client, seed, "one client" + at);
    expect_matches_sort_oracle(all_always_on, seed, "always on" + at);
    expect_matches_sort_oracle(one_minute, seed, "60 s day" + at);
  }
}

TEST(SortOracle, RecordCountOnAChunkBoundary) {
  // One always-on client that never starts a web transfer emits only
  // keep-alives, in time order, from a stream position that does not depend
  // on the duration: a shorter day keeps a prefix of the same records. So a
  // duration between two keep-alives pins the record count exactly.
  SyntheticTraceConfig config;
  config.client_count = 1;
  config.always_on_fraction = 1.0;
  config.always_on_flow_gap_factor = 1e15;
  config.duration = 1e6;
  sim::Random probe_rng(3);
  const FlowTrace day = SyntheticCrawdadGenerator(config).generate(probe_rng);
  for (const std::size_t target :
       {FlowChunks::kRecordsPerChunk, 2 * FlowChunks::kRecordsPerChunk}) {
    ASSERT_GT(day.size(), target);
    config.duration = 0.5 * (day[target - 1].start_time + day[target].start_time);
    sim::Random rng(3);
    const FlowChunks emitted = SyntheticCrawdadGenerator(config).emit(rng);
    ASSERT_EQ(emitted.size(), target);
    EXPECT_EQ(emitted.chunks.size(), target / FlowChunks::kRecordsPerChunk);
    expect_matches_sort_oracle(config, 3, "boundary " + std::to_string(target));
  }
}

FlowChunks chunks_of(const FlowTrace& records) {
  FlowChunks chunks;
  for (const FlowRecord& record : records) chunks.push_back(record);
  return chunks;
}

/// order_by_start_time must be std::stable_sort by start_time. The client
/// field numbers the input, so any instability shows as a client mismatch.
void expect_stable_sorted(FlowTrace records, double duration, const std::string& label) {
  for (std::size_t i = 0; i < records.size(); ++i) records[i].client = static_cast<int>(i);
  FlowTrace expected = records;
  std::stable_sort(expected.begin(), expected.end(), [](const FlowRecord& a, const FlowRecord& b) {
    return a.start_time < b.start_time;
  });
  expect_same_records(order_by_start_time(chunks_of(records), duration), expected, label);
}

TEST(OrderByStartTime, EmptyAndSingleRecord) {
  EXPECT_TRUE(order_by_start_time(FlowChunks{}, 10.0).empty());
  expect_stable_sorted({{0.0, 0, 1.0}}, 10.0, "n = 1 at zero");
  expect_stable_sorted({{9.5, 0, 1.0}}, 10.0, "n = 1 near the end");
}

TEST(OrderByStartTime, EqualTimesKeepInputOrder) {
  expect_stable_sorted({{3.0, 0, 1.0}, {1.5, 0, 2.0}, {3.0, 0, 3.0}, {0.0, 0, 4.0},
                        {1.5, 0, 5.0}, {3.0, 0, 6.0}, {0.0, 0, 7.0}},
                       10.0, "hand-built ties");
  // Every record at one time: one bucket, input order throughout.
  expect_stable_sorted(FlowTrace(50, FlowRecord{4.0, 0, 1.0}), 10.0, "all tied");
}

TEST(OrderByStartTime, RecordsJustBelowTheDurationLandInTheLastBucket) {
  const double duration = 86400.0;
  const double last = std::nextafter(duration, 0.0);
  expect_stable_sorted({{last, 0, 1.0}, {0.0, 0, 2.0}, {last, 0, 3.0},
                        {std::nextafter(last, 0.0), 0, 4.0}, {duration / 2, 0, 5.0}},
                       duration, "top end");
  expect_stable_sorted({{last, 0, 1.0}}, duration, "one record at the top end");
}

TEST(OrderByStartTime, SeededSweepAcrossChunkBoundaries) {
  sim::Random rng(17);
  for (const std::size_t n : {std::size_t{2}, std::size_t{7}, std::size_t{1000},
                              FlowChunks::kRecordsPerChunk, FlowChunks::kRecordsPerChunk + 1,
                              2 * FlowChunks::kRecordsPerChunk}) {
    FlowTrace records(n);
    // Quantised times force plenty of ties; the rest are continuous.
    for (std::size_t i = 0; i < n; ++i) {
      const double t = rng.uniform(0.0, 100.0);
      records[i].start_time = i % 2 == 0 ? std::floor(t) : t;
      records[i].bytes = static_cast<double>(i);
    }
    expect_stable_sorted(records, 100.0, "n = " + std::to_string(n));
  }
}

TEST(OrderByStartTime, RejectsTimesOutsideTheDayAndBadDurations) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double t : {-1.0, 10.0, 11.0, nan}) {
    EXPECT_THROW(order_by_start_time(chunks_of({{1.0, 0, 1.0}, {t, 0, 1.0}}), 10.0),
                 util::InvalidArgument)
        << t;
  }
  for (const double duration : {0.0, -1.0, std::numeric_limits<double>::infinity(), nan}) {
    EXPECT_THROW(order_by_start_time(chunks_of({{0.0, 0, 1.0}}), duration),
                 util::InvalidArgument)
        << duration;
  }
}

}  // namespace
}  // namespace insomnia::trace
