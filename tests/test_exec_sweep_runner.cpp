#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/sweep_runner.h"
#include "sim/random.h"
#include "util/error.h"

namespace insomnia::exec {
namespace {

TEST(SweepRunner, ResultsAreOrderedByIndexNotCompletionOrder) {
  SweepRunner runner(4);
  // Make low indices slow so completion order inverts submission order.
  const auto results = runner.run(32, [](std::size_t i) {
    volatile double sink = 0.0;
    const int spin = static_cast<int>((32 - i) * 10000);
    for (int k = 0; k < spin; ++k) sink = sink + 1.0;
    return i * i;
  });
  ASSERT_EQ(results.size(), 32u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i * i);
}

TEST(SweepRunner, SerialAndParallelAgree) {
  auto shard = [](std::size_t i) {
    sim::Random rng(sim::Random::substream_seed(99, i));
    double total = 0.0;
    for (int k = 0; k < 50; ++k) total += rng.uniform(0.0, 1.0);
    return total;
  };
  SweepRunner serial(1);
  SweepRunner parallel(8);
  const auto a = serial.run(40, shard);
  const auto b = parallel.run(40, shard);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "shard " << i;  // bit-identical, not just close
  }
}

TEST(SweepRunner, OneThreadRunsInline) {
  SweepRunner runner(1);
  EXPECT_EQ(runner.threads(), 1);
  const std::thread::id main_id = std::this_thread::get_id();
  const auto ids = runner.run(4, [&](std::size_t) { return std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, main_id);
}

TEST(SweepRunner, SingleShardRunsInlineEvenWithManyThreads) {
  SweepRunner runner(8);
  const auto ids = runner.run(1, [](std::size_t) { return std::this_thread::get_id(); });
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], std::this_thread::get_id());
}

TEST(SweepRunner, EmptySweepReturnsEmpty) {
  SweepRunner runner(4);
  EXPECT_TRUE(runner.run(0, [](std::size_t i) { return i; }).empty());
}

TEST(SweepRunner, MoreThreadsThanShardsIsFine) {
  SweepRunner runner(16);
  const auto results = runner.run(3, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(results, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(SweepRunner, MultipleFailuresAggregateEveryIndex) {
  SweepRunner runner(4);
  try {
    runner.run(16, [](std::size_t i) -> int {
      if (i == 11) throw std::runtime_error("shard 11");
      if (i == 3) throw std::runtime_error("shard 3");
      return 0;
    });
    FAIL() << "expected an exception";
  } catch (const AggregateError& error) {
    // The old contract rethrew only the lowest index and silently dropped
    // the rest; now every failing shard survives into one error.
    ASSERT_EQ(error.failures().size(), 2u);
    EXPECT_EQ(error.failures()[0].index, 3u);
    EXPECT_EQ(error.failures()[0].message, "shard 3");
    EXPECT_EQ(error.failures()[1].index, 11u);
    EXPECT_EQ(error.failures()[1].message, "shard 11");
    EXPECT_NE(std::string(error.what()).find("indices 3 11"), std::string::npos);
  }
}

TEST(SweepRunner, SingleFailureRethrowsTheOriginalException) {
  // One failing shard must keep the historical contract exactly: the
  // ORIGINAL exception object type, not an AggregateError wrapper.
  SweepRunner runner(4);
  try {
    runner.run(16, [](std::size_t i) -> int {
      if (i == 5) throw std::invalid_argument("original type");
      return 0;
    });
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "original type");
  }
}

TEST(SweepRunner, PreconditionViolationOutranksOtherFailures) {
  // util::InvalidArgument is systemic (a config bug), so the lowest-indexed
  // one is rethrown alone even when other shards failed too — callers'
  // EXPECT_THROW(..., InvalidArgument) contracts survive aggregation.
  SweepRunner runner(4);
  EXPECT_THROW(runner.run(16,
                          [](std::size_t i) -> int {
                            if (i == 2) throw std::runtime_error("transient");
                            if (i == 9) throw util::InvalidArgument("bad config");
                            return 0;
                          }),
               util::InvalidArgument);
}

TEST(SweepRunner, RetriesRecoverTransientFailures) {
  SweepRunner runner(4);
  RetryPolicy policy;
  policy.max_attempts = 3;
  std::atomic<int> attempts{0};
  const auto results = runner.run(
      8,
      [&](std::size_t i, int attempt) -> std::size_t {
        attempts.fetch_add(1);
        if (attempt < 2 && i % 3 == 0) throw std::runtime_error("transient");
        return i;
      },
      policy);
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i);
  // Shards 0, 3, 6 each burn two failed attempts before succeeding.
  EXPECT_EQ(attempts.load(), 8 + 2 * 3);
}

TEST(SweepRunner, RetriesNeverApplyToPreconditionViolations) {
  SweepRunner runner(1);
  RetryPolicy policy;
  policy.max_attempts = 5;
  std::atomic<int> attempts{0};
  const auto outcomes = runner.run_settled(
      1,
      [&](std::size_t) -> int {
        attempts.fetch_add(1);
        throw util::InvalidArgument("config bug");
      },
      policy);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok());
  EXPECT_TRUE(outcomes[0].fatal);
  EXPECT_EQ(outcomes[0].attempts, 1);  // not retried
  EXPECT_EQ(attempts.load(), 1);
}

TEST(SweepRunner, RunSettledNeverThrowsAndKeepsFirstMessage) {
  SweepRunner runner(4);
  RetryPolicy policy;
  policy.max_attempts = 2;
  const auto outcomes = runner.run_settled(
      6,
      [](std::size_t i, int attempt) -> std::size_t {
        if (i == 4) throw std::runtime_error("always fails, attempt " +
                                             std::to_string(attempt));
        return i * 10;
      },
      policy);
  ASSERT_EQ(outcomes.size(), 6u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 4) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_FALSE(outcomes[i].fatal);
      EXPECT_EQ(outcomes[i].attempts, 2);
      // The FIRST failing attempt's message names the original cause.
      EXPECT_EQ(outcomes[i].message, "always fails, attempt 0");
    } else {
      ASSERT_TRUE(outcomes[i].ok());
      EXPECT_EQ(*outcomes[i].value, i * 10);
      EXPECT_EQ(outcomes[i].attempts, 1);
    }
  }
}

TEST(SweepRunner, SettledOutcomesAreThreadCountInvariant) {
  const auto shard = [](std::size_t i, int attempt) -> double {
    // Deterministic failure pattern: shard i fails its first (i % 3)
    // attempts, so outcomes depend only on (i, attempt) — never on timing.
    if (attempt < static_cast<int>(i % 3)) throw std::runtime_error("later");
    sim::Random rng(sim::Random::substream_seed(7, i));
    return rng.uniform(0.0, 1.0);
  };
  RetryPolicy policy;
  policy.max_attempts = 2;
  SweepRunner serial(1);
  SweepRunner parallel(8);
  const auto a = serial.run_settled(24, shard, policy);
  const auto b = parallel.run_settled(24, shard, policy);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ok(), b[i].ok()) << "shard " << i;
    EXPECT_EQ(a[i].attempts, b[i].attempts) << "shard " << i;
    if (a[i].ok()) {
      EXPECT_EQ(*a[i].value, *b[i].value) << "shard " << i;
    }
  }
}

TEST(SweepRunner, ShardsStartInIndexOrder) {
  // Callers sort work longest-first and rely on dispatch following index
  // order. Each shard waits (bounded) for its turn before recording its
  // start, so the record is race-free when the pool dispatches in index
  // order; a shard dispatched early waits out the timeout and lands out of
  // place.
  constexpr std::size_t kShards = 16;
  std::vector<std::size_t> expected(kShards);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  for (int threads : {2, 4}) {
    SweepRunner runner(threads);
    std::mutex mutex;
    std::condition_variable turn;
    std::vector<std::size_t> started;
    runner.run_settled(kShards, [&](std::size_t i) {
      std::unique_lock<std::mutex> lock(mutex);
      turn.wait_for(lock, std::chrono::seconds(2), [&] { return started.size() == i; });
      started.push_back(i);
      turn.notify_all();
      return i;
    });
    EXPECT_EQ(started, expected) << threads << " threads";
  }
}

TEST(SweepRunner, AllShardsStillRunWhenOneThrows) {
  SweepRunner runner(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(runner.run(20,
                          [&](std::size_t i) -> int {
                            ran.fetch_add(1);
                            if (i == 0) throw std::runtime_error("boom");
                            return 0;
                          }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 20);
}

TEST(SweepRunner, ReusableAcrossRuns) {
  SweepRunner runner(4);
  for (int round = 0; round < 5; ++round) {
    const auto results = runner.run(10, [&](std::size_t i) {
      return static_cast<int>(i) + round;
    });
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], static_cast<int>(i) + round);
    }
  }
}

TEST(SweepRunner, AutoThreadsResolvesToAtLeastOne) {
  SweepRunner runner(0);
  EXPECT_GE(runner.threads(), 1);
  const auto results = runner.run(8, [](std::size_t i) { return i; });
  const std::size_t sum = std::accumulate(results.begin(), results.end(), std::size_t{0});
  EXPECT_EQ(sum, 28u);
}

}  // namespace
}  // namespace insomnia::exec
