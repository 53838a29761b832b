// The country engine's determinism contract, end to end: every (seed,
// region, city) shard is a pure function of the config, so the folded
// CountryMetrics is bit-identical at any thread count, across process
// fan-out, and across a kill-and-resume split — and a checkpoint written
// under one config refuses to resume under another.
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "country/checkpoint.h"
#include "country/country_runner.h"
#include "support/tiny_population.h"
#include "util/error.h"

namespace insomnia::country {
namespace {

namespace fs = std::filesystem;

using city::tiny_population;

/// Two regions x two/three cities of one-or-two-neighbourhood tiny cities:
/// five shards, seconds of work, same code paths as the 620-shard portfolio.
CountryConfig tiny_country(int threads = 1) {
  city::NeighbourhoodJitter jitter;
  jitter.gateway_count_spread = 0.2;
  jitter.client_density_spread = 0.2;
  jitter.backhaul_sigma = 0.15;
  jitter.diurnal_phase_spread = 3600.0;

  CityTemplate mostly_a;
  mostly_a.name = "mostly-a";
  mostly_a.weight = 2.0;
  mostly_a.mix = {{"tiny-a", 3.0, jitter}, {"tiny-b", 1.0, jitter}};
  mostly_a.neighbourhoods_min = 1;
  mostly_a.neighbourhoods_max = 2;

  CityTemplate mostly_b = mostly_a;
  mostly_b.name = "mostly-b";
  mostly_b.weight = 1.0;
  mostly_b.mix = {{"tiny-a", 1.0, jitter}, {"tiny-b", 3.0, jitter}};

  RegionConfig north;
  north.name = "north";
  north.cities = 3;
  north.portfolio = {mostly_a, mostly_b};

  RegionConfig south;
  south.name = "south";
  south.cities = 2;
  south.portfolio = {mostly_b};

  CountryConfig config;
  config.name = "tiny-country";
  config.regions = {north, south};
  config.seed = 2026;
  config.threads = threads;
  return config;
}

/// The metro shape in miniature: one city holds six of the eight
/// neighbourhoods, so under flat scheduling its neighbourhoods spread over
/// every worker and interleave with the two one-neighbourhood cities.
CountryConfig skewed_country(int threads = 1) {
  city::NeighbourhoodJitter jitter;
  jitter.gateway_count_spread = 0.2;
  jitter.client_density_spread = 0.2;

  CityTemplate metro;
  metro.name = "metro";
  metro.mix = {{"tiny-a", 3.0, jitter}, {"tiny-b", 1.0, jitter}};
  metro.neighbourhoods_min = metro.neighbourhoods_max = 6;

  CityTemplate town = metro;
  town.name = "town";
  town.mix = {{"tiny-b", 1.0, jitter}};
  town.neighbourhoods_min = town.neighbourhoods_max = 1;

  RegionConfig core;
  core.name = "core";
  core.cities = 1;
  core.portfolio = {metro};

  RegionConfig fringe;
  fringe.name = "fringe";
  fringe.cities = 2;
  fringe.portfolio = {town};

  CountryConfig config;
  config.name = "skewed-country";
  config.regions = {core, fringe};
  config.seed = 77;
  config.threads = threads;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "insomnia_runner_" + name;
  fs::remove_all(dir);
  return dir;
}

void expect_bit_identical(const CountryMetrics& a, const CountryMetrics& b) {
  EXPECT_EQ(a.cities(), b.cities());
  EXPECT_EQ(a.neighbourhoods(), b.neighbourhoods());
  EXPECT_EQ(a.total_gateways(), b.total_gateways());
  EXPECT_EQ(a.total_clients(), b.total_clients());
  EXPECT_EQ(a.wake_events(), b.wake_events());
  // EXPECT_EQ on doubles is exact: this is the bit-identity contract.
  EXPECT_EQ(a.baseline_watts(), b.baseline_watts());
  EXPECT_EQ(a.scheme_watts(), b.scheme_watts());
  EXPECT_EQ(a.savings_fraction(), b.savings_fraction());
  EXPECT_EQ(a.isp_share_of_savings(), b.isp_share_of_savings());
  EXPECT_EQ(a.peak_online_gateways(), b.peak_online_gateways());
  EXPECT_EQ(a.neighbourhood_savings().count(), b.neighbourhood_savings().count());
  EXPECT_EQ(a.neighbourhood_savings().mean(), b.neighbourhood_savings().mean());
  EXPECT_EQ(a.neighbourhood_savings().m2(), b.neighbourhood_savings().m2());
  EXPECT_EQ(a.savings_ci95_halfwidth(), b.savings_ci95_halfwidth());
  ASSERT_EQ(a.per_region().size(), b.per_region().size());
  for (std::size_t r = 0; r < a.per_region().size(); ++r) {
    EXPECT_EQ(a.per_region()[r].cities, b.per_region()[r].cities);
    EXPECT_EQ(a.per_region()[r].baseline_watts, b.per_region()[r].baseline_watts);
    EXPECT_EQ(a.per_region()[r].scheme_watts, b.per_region()[r].scheme_watts);
    EXPECT_EQ(a.per_region()[r].savings.mean(), b.per_region()[r].savings.mean());
  }
}

TEST(CountryRunner, SampleCityIsAPureKeyedFunction) {
  const CountryConfig config = tiny_country();
  const CitySample once = sample_city(config, 0, 1);
  const CitySample again = sample_city(config, 0, 1);
  EXPECT_EQ(once.template_index, again.template_index);
  EXPECT_EQ(once.city.seed, again.city.seed);
  EXPECT_EQ(once.city.neighbourhoods, again.city.neighbourhoods);
  EXPECT_EQ(once.city.scheme, config.scheme);

  // Distinct shards get distinct substreams.
  EXPECT_NE(sample_city(config, 0, 0).city.seed, once.city.seed);
  EXPECT_NE(sample_city(config, 1, 1).city.seed, once.city.seed);

  EXPECT_THROW(sample_city(config, 5, 0), util::InvalidArgument);
  EXPECT_THROW(sample_city(config, 0, 99), util::InvalidArgument);
}

TEST(CountryRunner, RunIsCompleteAndStructurallySane) {
  const CountryResult result = run_country(tiny_country(), {}, tiny_population());
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.completed_shards, 5u);
  const CountryMetrics& metrics = result.metrics;
  EXPECT_EQ(metrics.cities(), 5u);
  EXPECT_GE(metrics.neighbourhoods(), 5u);
  EXPECT_GT(metrics.total_gateways(), 0);
  EXPECT_GT(metrics.scheme_watts(), 0.0);
  EXPECT_LT(metrics.scheme_watts(), metrics.baseline_watts());
  ASSERT_EQ(metrics.per_region().size(), 2u);
  EXPECT_EQ(metrics.per_region()[0].cities, 3u);
  EXPECT_EQ(metrics.per_region()[1].cities, 2u);
}

TEST(CountryRunner, ThreadCountDoesNotChangeASingleBit) {
  const CountryResult serial = run_country(tiny_country(1), {}, tiny_population());
  const CountryResult threaded = run_country(tiny_country(3), {}, tiny_population());
  ASSERT_TRUE(serial.complete);
  ASSERT_TRUE(threaded.complete);
  expect_bit_identical(serial.metrics, threaded.metrics);
}

TEST(CountryRunner, KillAndResumeMatchesUninterruptedBitForBit) {
  const CountryResult uninterrupted = run_country(tiny_country(), {}, tiny_population());
  ASSERT_TRUE(uninterrupted.complete);

  const std::string dir = fresh_dir("resume");
  CountryRunOptions options;
  options.checkpoint_dir = dir;
  options.flush_every = 1;  // checkpoint after every shard
  options.max_city_shards = 2;

  // "Killed" after two shards...
  const CountryResult first = run_country(tiny_country(), options, tiny_population());
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.completed_shards, 2u);

  // ...killed again after two more...
  const CountryResult second = run_country(tiny_country(), options, tiny_population());
  EXPECT_FALSE(second.complete);
  EXPECT_EQ(second.completed_shards, 4u);

  // ...then allowed to finish. Three processes' files union to the full set.
  options.max_city_shards = 0;
  const CountryResult resumed = run_country(tiny_country(), options, tiny_population());
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.completed_shards, 5u);
  expect_bit_identical(uninterrupted.metrics, resumed.metrics);

  // Resuming a COMPLETE checkpoint simulates nothing and still folds the
  // same numbers.
  const CountryResult reloaded = run_country(tiny_country(), options, tiny_population());
  ASSERT_TRUE(reloaded.complete);
  expect_bit_identical(uninterrupted.metrics, reloaded.metrics);
}

TEST(CountryRunner, ProcessFanOutMatchesInProcessBitForBit) {
  const CountryResult in_process = run_country(tiny_country(), {}, tiny_population());
  ASSERT_TRUE(in_process.complete);

  const std::string dir = fresh_dir("procs");
  CountryRunOptions options;
  options.checkpoint_dir = dir;
  options.procs = 3;
  const CountryResult fanned = run_country(tiny_country(), options, tiny_population());
  ASSERT_TRUE(fanned.complete);
  EXPECT_EQ(fanned.completed_shards, 5u);
  expect_bit_identical(in_process.metrics, fanned.metrics);

  // Three workers -> three checkpoint files in the shared directory.
  std::size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files += entry.path().extension() == ".ckpt" ? 1 : 0;
  }
  EXPECT_EQ(files, 3u);
}

TEST(CountryRunner, SkewedFleetFoldsBitIdenticalUnderEverySchedule) {
  const CountryResult serial = run_country(skewed_country(1), {}, tiny_population());
  ASSERT_TRUE(serial.complete);
  ASSERT_EQ(serial.metrics.neighbourhoods(), 8u);

  const CountryResult threaded = run_country(skewed_country(3), {}, tiny_population());
  ASSERT_TRUE(threaded.complete);
  expect_bit_identical(serial.metrics, threaded.metrics);

  // One city per invocation, checkpointed after each: the metro city's
  // neighbourhoods are scheduled alone, the towns' in later invocations.
  CountryRunOptions options;
  options.checkpoint_dir = fresh_dir("skewed");
  options.flush_every = 1;
  options.max_city_shards = 1;
  CountryResult chained;
  for (int invocation = 0; invocation < 3; ++invocation) {
    chained = run_country(skewed_country(3), options, tiny_population());
    EXPECT_EQ(chained.completed_shards, static_cast<std::size_t>(invocation) + 1);
  }
  ASSERT_TRUE(chained.complete);
  expect_bit_identical(serial.metrics, chained.metrics);

  // The serial reference: simulate_city over every shard, folded in
  // canonical order.
  const CountryConfig config = skewed_country();
  std::vector<std::string> names;
  for (const RegionConfig& region : config.regions) names.push_back(region.name);
  CountryMetrics folded(names);
  for (std::uint32_t r = 0; r < config.regions.size(); ++r) {
    const auto cities = static_cast<std::uint32_t>(config.regions[r].cities);
    for (std::uint32_t c = 0; c < cities; ++c) {
      folded.add(simulate_city(config, tiny_population(), r, c));
    }
  }
  expect_bit_identical(serial.metrics, folded);
}

TEST(CountryRunner, NeighbourhoodPreconditionViolationIsFatalNotQuarantined) {
  // Sampling accepts this population; the metro's neighbourhood days then
  // reject its traffic model. A config bug must abort, never shrink the
  // country by quarantine.
  std::vector<core::ScenarioPreset> broken = tiny_population();
  broken[0].scenario.traffic.flow_size_max = broken[0].scenario.traffic.flow_size_min;
  EXPECT_THROW(run_country(skewed_country(3), {}, broken), util::InvalidArgument);
}

TEST(CountryRunner, ResumeUnderADifferentConfigIsRefused) {
  const std::string dir = fresh_dir("refuse");
  CountryRunOptions options;
  options.checkpoint_dir = dir;
  options.max_city_shards = 1;
  ASSERT_FALSE(run_country(tiny_country(), options, tiny_population()).complete);

  CountryConfig changed = tiny_country();
  changed.seed += 1;
  EXPECT_THROW(run_country(changed, options, tiny_population()), util::InvalidArgument);
}

TEST(CountryRunner, ExecutionKnobsAreValidated) {
  CountryRunOptions options;
  options.procs = 0;
  EXPECT_THROW(run_country(tiny_country(), options, tiny_population()),
               util::InvalidArgument);
  options.procs = 2;  // fan-out without a shared checkpoint directory
  EXPECT_THROW(run_country(tiny_country(), options, tiny_population()),
               util::InvalidArgument);
  CountryConfig config = tiny_country();
  config.scheme = "no-such-scheme";
  EXPECT_THROW(run_country(config, {}, tiny_population()), util::InvalidArgument);
}

}  // namespace
}  // namespace insomnia::country
