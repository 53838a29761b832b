// Chaos soak tests for the self-healing fleet: under a deterministic fault
// plan, a RECOVERABLE chaos run (every fault healed by retries or re-forks)
// must fold bit-identically to the fault-free run; an UNRECOVERABLE one must
// complete degraded with a quarantine set that is a pure function of the
// fault key — identical at any thread count, across process fan-out, and
// across resume splits. Expected failure sets are computed from
// resilience::fault_fires itself (the same pure function the runner keys
// on), so these tests never hardcode which city happens to die.
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "country/checkpoint.h"
#include "country/country_runner.h"
#include "resilience/fault_plan.h"
#include "support/tiny_population.h"
#include "util/error.h"

namespace insomnia::country {
namespace {

namespace fs = std::filesystem;

using city::tiny_population;

/// Same five-shard fixture as test_country_runner.cpp: two regions, tiny
/// cities, seconds of work, every code path of the 620-shard portfolio.
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

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "insomnia_resilience_" + name;
  fs::remove_all(dir);
  return dir;
}

void expect_bit_identical(const CountryMetrics& a, const CountryMetrics& b) {
  EXPECT_EQ(a.cities(), b.cities());
  EXPECT_EQ(a.neighbourhoods(), b.neighbourhoods());
  EXPECT_EQ(a.total_gateways(), b.total_gateways());
  EXPECT_EQ(a.wake_events(), b.wake_events());
  // EXPECT_EQ on doubles is exact: this is the bit-identity contract.
  EXPECT_EQ(a.baseline_watts(), b.baseline_watts());
  EXPECT_EQ(a.scheme_watts(), b.scheme_watts());
  EXPECT_EQ(a.savings_fraction(), b.savings_fraction());
  EXPECT_EQ(a.savings_ci95_halfwidth(), b.savings_ci95_halfwidth());
  EXPECT_EQ(a.peak_online_gateways(), b.peak_online_gateways());
  EXPECT_EQ(a.neighbourhood_savings().m2(), b.neighbourhood_savings().m2());
}

using ShardKey = std::pair<std::uint32_t, std::uint32_t>;

std::vector<ShardKey> all_shards(const CountryConfig& config) {
  std::vector<ShardKey> shards;
  for (std::uint32_t r = 0; r < config.regions.size(); ++r) {
    for (std::uint32_t c = 0; c < static_cast<std::uint32_t>(config.regions[r].cities);
         ++c) {
      shards.push_back({r, c});
    }
  }
  return shards;
}

/// The shards that exhaust a `max_attempts` budget under `plan` — computed
/// with the exact keying the runner uses, so it IS the expected quarantine.
std::set<ShardKey> expected_exhausted(const CountryConfig& config,
                                      const resilience::FaultPlan& plan,
                                      int max_attempts) {
  const std::uint64_t fault_seed = plan.seed != 0 ? plan.seed : config.seed;
  std::set<ShardKey> exhausted;
  for (const ShardKey& shard : all_shards(config)) {
    const std::uint64_t stream =
        (static_cast<std::uint64_t>(shard.first) << 32) | shard.second;
    bool every_attempt_fires = true;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      if (!resilience::fault_fires(plan.shard_throw, fault_seed, stream,
                                   resilience::kShardThrowSalt,
                                   static_cast<std::uint64_t>(attempt))) {
        every_attempt_fires = false;
        break;
      }
    }
    if (every_attempt_fires) exhausted.insert(shard);
  }
  return exhausted;
}

/// A fault plan whose quarantine set under `max_attempts` is PARTIAL (some
/// but not all shards die) — found by scanning fault seeds, deterministic
/// for the fixture.
resilience::FaultPlan partial_kill_plan(const CountryConfig& config, int max_attempts) {
  resilience::FaultPlan plan;
  plan.shard_throw = 0.6;
  const std::size_t total = all_shards(config).size();
  for (std::uint64_t seed = 1; seed < 200; ++seed) {
    plan.seed = seed;
    const std::size_t dead = expected_exhausted(config, plan, max_attempts).size();
    if (dead > 0 && dead < total) return plan;
  }
  ADD_FAILURE() << "no fault seed under 200 gives a partial quarantine";
  return plan;
}

std::set<ShardKey> quarantined_set(const CountryResult& result) {
  std::set<ShardKey> keys;
  for (const QuarantinedCity& q : result.quarantined) keys.insert({q.region, q.city});
  return keys;
}

TEST(CountryResilience, RecoverableChaosFoldsBitIdenticalToFaultFree) {
  const CountryResult clean = run_country(tiny_country(), {}, tiny_population());
  ASSERT_TRUE(clean.complete);

  // Budget big enough that NO shard exhausts it (verified against the same
  // pure function the runner keys on) — every injected failure heals.
  resilience::FaultPlan plan;
  plan.shard_throw = 0.45;
  plan.seed = 11;
  int attempts = 3;
  while (!expected_exhausted(tiny_country(), plan, attempts).empty()) ++attempts;

  CountryRunOptions options;
  options.faults = plan;
  options.max_attempts = attempts;
  const CountryResult chaos = run_country(tiny_country(3), options, tiny_population());
  ASSERT_TRUE(chaos.complete);
  EXPECT_FALSE(chaos.degraded());
  EXPECT_EQ(chaos.completed_shards, clean.completed_shards);
  EXPECT_DOUBLE_EQ(chaos.coverage(), 1.0);
  expect_bit_identical(clean.metrics, chaos.metrics);
}

TEST(CountryResilience, QuarantineIsDeterministicAcrossThreadCounts) {
  const int attempts = 2;
  const resilience::FaultPlan plan = partial_kill_plan(tiny_country(), attempts);
  const std::set<ShardKey> expected = expected_exhausted(tiny_country(), plan, attempts);

  CountryRunOptions options;
  options.faults = plan;
  options.max_attempts = attempts;

  const CountryResult serial = run_country(tiny_country(1), options, tiny_population());
  const CountryResult threaded = run_country(tiny_country(3), options, tiny_population());

  ASSERT_TRUE(serial.complete);
  ASSERT_TRUE(serial.degraded());
  EXPECT_EQ(quarantined_set(serial), expected);
  EXPECT_EQ(quarantined_set(threaded), expected);
  EXPECT_EQ(serial.completed_shards + serial.quarantined.size(), serial.total_shards);
  EXPECT_LT(serial.coverage(), 1.0);
  EXPECT_GT(serial.coverage(), 0.0);
  // The fold over the SURVIVING cities is still bit-identical across thread
  // counts, and its CI comes from the smaller surviving sample.
  expect_bit_identical(serial.metrics, threaded.metrics);
  EXPECT_LT(serial.metrics.cities(), serial.total_shards);
  EXPECT_GT(serial.metrics.savings_ci95_halfwidth(), 0.0);

  // Every quarantine record carries the full retry story.
  for (const QuarantinedCity& q : serial.quarantined) {
    EXPECT_EQ(q.attempts, attempts);
    EXPECT_NE(q.reason.find("injected shard fault"), std::string::npos);
  }
}

TEST(CountryResilience, QuarantineIsDeterministicAcrossProcessFanOut) {
  const int attempts = 2;
  const resilience::FaultPlan plan = partial_kill_plan(tiny_country(), attempts);

  CountryRunOptions in_proc;
  in_proc.faults = plan;
  in_proc.max_attempts = attempts;
  const CountryResult reference = run_country(tiny_country(), in_proc, tiny_population());
  ASSERT_TRUE(reference.degraded());

  CountryRunOptions fanned = in_proc;
  fanned.checkpoint_dir = fresh_dir("quarantine_procs");
  fanned.procs = 3;
  const CountryResult result = run_country(tiny_country(), fanned, tiny_population());
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(quarantined_set(result), quarantined_set(reference));
  expect_bit_identical(reference.metrics, result.metrics);
  // The exhausted children reported themselves through the exit protocol.
  EXPECT_FALSE(result.child_failures.empty());
  for (const ChildFailure& failure : result.child_failures) {
    EXPECT_EQ(failure.exit_status, 3);  // kChildExhaustedExit
    EXPECT_NE(failure.describe().find("retry budget"), std::string::npos);
  }
}

TEST(CountryResilience, KilledChildrenAreReForkedAndSelfHeal) {
  const CountryResult clean = run_country(tiny_country(), {}, tiny_population());

  CountryRunOptions options;
  options.checkpoint_dir = fresh_dir("child_kill");
  options.procs = 2;
  options.flush_every = 1;  // progress survives every kill
  options.faults.child_kill = 1.0;  // EVERY child dies, EVERY generation
  const CountryResult result = run_country(tiny_country(), options, tiny_population());

  ASSERT_TRUE(result.complete);
  EXPECT_FALSE(result.degraded());
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
  expect_bit_identical(clean.metrics, result.metrics);

  // The forensic record: every failure names the pid, the signal, and the
  // shard slice the dead worker was responsible for.
  ASSERT_FALSE(result.child_failures.empty());
  for (const ChildFailure& failure : result.child_failures) {
    EXPECT_GT(failure.pid, 0);
    EXPECT_EQ(failure.term_signal, SIGKILL);
    EXPECT_GT(failure.shard_count, 0u);
    const std::string text = failure.describe();
    EXPECT_NE(text.find("killed by signal 9"), std::string::npos);
    EXPECT_NE(text.find("slice"), std::string::npos);
  }
}

TEST(CountryResilience, ChildKillPlusShardThrowStillHealsCompletely) {
  const CountryResult clean = run_country(tiny_country(), {}, tiny_population());

  resilience::FaultPlan plan;
  plan.child_kill = 1.0;
  plan.shard_throw = 0.45;
  plan.seed = 11;
  int attempts = 3;
  while (!expected_exhausted(tiny_country(), plan, attempts).empty()) ++attempts;

  CountryRunOptions options;
  options.checkpoint_dir = fresh_dir("kill_and_throw");
  options.procs = 2;
  options.flush_every = 1;
  options.faults = plan;
  options.max_attempts = attempts;
  const CountryResult result = run_country(tiny_country(), options, tiny_population());
  ASSERT_TRUE(result.complete);
  EXPECT_FALSE(result.degraded());
  expect_bit_identical(clean.metrics, result.metrics);
}

TEST(CountryResilience, DegradedCheckpointResumesToFullCoverage) {
  const CountryResult clean = run_country(tiny_country(), {}, tiny_population());

  const int attempts = 2;
  const resilience::FaultPlan plan = partial_kill_plan(tiny_country(), attempts);
  CountryRunOptions options;
  options.checkpoint_dir = fresh_dir("degraded_resume");
  options.flush_every = 1;
  options.faults = plan;
  options.max_attempts = attempts;
  const CountryResult degraded = run_country(tiny_country(), options, tiny_population());
  ASSERT_TRUE(degraded.degraded());

  // The quarantined cities were never checkpointed, so a later fault-free
  // run over the same directory re-simulates exactly them and reaches full
  // bit-identical coverage — degradation is never sticky.
  options.faults = resilience::FaultPlan{};
  const CountryResult healed = run_country(tiny_country(), options, tiny_population());
  ASSERT_TRUE(healed.complete);
  EXPECT_FALSE(healed.degraded());
  EXPECT_EQ(healed.completed_shards, healed.total_shards);
  expect_bit_identical(clean.metrics, healed.metrics);
}

TEST(CountryResilience, AllShardsFailingIsSystemicAndAborts) {
  CountryRunOptions options;
  options.faults.shard_throw = 1.0;
  options.max_attempts = 2;
  EXPECT_THROW(run_country(tiny_country(), options, tiny_population()),
               util::InvalidState);
}

TEST(CountryResilience, FailFastAbortsInsteadOfQuarantining) {
  const int attempts = 2;
  CountryRunOptions options;
  options.faults = partial_kill_plan(tiny_country(), attempts);
  options.max_attempts = attempts;
  options.fail_fast = true;
  EXPECT_THROW(run_country(tiny_country(), options, tiny_population()),
               std::runtime_error);
}

TEST(CountryResilience, FailFastReportsDeadChildrenWithDetail) {
  CountryRunOptions options;
  options.checkpoint_dir = fresh_dir("fail_fast_procs");
  options.procs = 2;
  options.flush_every = 1;
  options.faults.child_kill = 1.0;
  options.fail_fast = true;
  try {
    run_country(tiny_country(), options, tiny_population());
    FAIL() << "expected fail-fast to abort on the killed children";
  } catch (const util::InvalidState& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("child pid"), std::string::npos);
    EXPECT_NE(what.find("signal 9"), std::string::npos);
    EXPECT_NE(what.find("resume"), std::string::npos);
  }
}

TEST(CountryResilience, TornCheckpointWritesNeverCorruptAResumeChain) {
  // Every flush tears (p=1): nothing ever commits, only .tmp debris is left
  // — which the next load discards (salvage) instead of tripping over.
  CountryRunOptions options;
  options.checkpoint_dir = fresh_dir("torn");
  options.flush_every = 1;
  options.faults.ckpt_torn = 1.0;
  const CountryResult result = run_country(tiny_country(), options, tiny_population());
  ASSERT_TRUE(result.complete);  // in-memory digests are unaffected by torn I/O

  bool saw_tmp = false;
  for (const fs::directory_entry& entry : fs::directory_iterator(options.checkpoint_dir)) {
    saw_tmp |= entry.path().extension() == ".tmp";
    EXPECT_NE(entry.path().extension(), ".ckpt");  // no commit ever happened
  }
  EXPECT_TRUE(saw_tmp);

  // A fresh fault-free run over the same directory salvages (discards the
  // debris), re-simulates everything, and matches the clean fold.
  options.faults = resilience::FaultPlan{};
  const CountryResult resumed = run_country(tiny_country(), options, tiny_population());
  ASSERT_TRUE(resumed.complete);
  const CountryResult clean = run_country(tiny_country(), {}, tiny_population());
  expect_bit_identical(clean.metrics, resumed.metrics);
}

TEST(CountryResilience, CorruptedCommittedCheckpointStillRefusesLoudly) {
  // ckpt-flip corrupts a COMMITTED file (past the atomic rename). Salvage
  // must NOT paper over that: the next resume refuses with a clear error.
  CountryRunOptions options;
  options.checkpoint_dir = fresh_dir("flip");
  options.flush_every = 1;
  options.faults.ckpt_flip = 1.0;
  const CountryResult result = run_country(tiny_country(), options, tiny_population());
  ASSERT_TRUE(result.complete);

  options.faults = resilience::FaultPlan{};
  EXPECT_THROW(run_country(tiny_country(), options, tiny_population()),
               util::InvalidArgument);
}

TEST(CountryResilience, RetryKnobIsValidated) {
  CountryRunOptions options;
  options.max_attempts = 0;
  EXPECT_THROW(run_country(tiny_country(), options, tiny_population()),
               util::InvalidArgument);
}

}  // namespace
}  // namespace insomnia::country
