// Deterministic sharding of embarrassingly parallel experiment work. A sweep
// is `count` independent shards indexed 0..count-1; SweepRunner evaluates a
// function over every index on a fixed-size thread pool and returns the
// results ordered by index. Because shards must derive any randomness from
// their index (sim::Random::fork(index) / substream_seed), the result vector
// is bit-identical no matter how many threads ran it — callers then fold the
// per-shard results serially, in index order, so even floating-point
// accumulation matches the single-threaded path exactly.
//
// Failure contract: every shard runs to completion (or exhausts its retry
// budget) before anything is thrown — a sweep never loses sibling results
// to the first failure. Exactly one failing shard rethrows the ORIGINAL
// exception (type preserved); several failing shards throw AggregateError
// carrying every failing index and its first message. Precondition
// violations (util::InvalidArgument) are systemic, never transient: they
// are not retried, and the lowest-indexed one is rethrown alone even when
// other shards failed too. run_settled() is the no-throw form for callers
// that degrade instead of aborting (the fleet quarantine path).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/aggregate_error.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/error.h"

namespace insomnia::exec {

/// Bounded retries with capped exponential backoff and full jitter. The
/// default (one attempt, no backoff) is exactly the historical
/// run-once-and-fail behavior. Backoff delays are drawn from sim::Random
/// substreams keyed on (seed, shard index, attempt) — deterministic wall
/// pacing that can never influence shard results.
struct RetryPolicy {
  int max_attempts = 1;        ///< >= 1; 1 = no retries
  double backoff_base_ms = 0;  ///< cap of the first retry's jittered delay; 0 = none
  double backoff_cap_ms = 0;   ///< ceiling of the exponential growth; 0 = uncapped
  std::uint64_t seed = 0;      ///< keys the full-jitter delay draws
};

/// One shard's settled outcome: either a value, or the first failing
/// attempt's exception (every later attempt also failed). `attempts` counts
/// attempts actually made, so telemetry and quarantine reports can say "gave
/// up after N tries".
template <typename T>
struct ShardOutcome {
  std::optional<T> value;
  std::exception_ptr error;  ///< engaged iff !value: the first failing attempt
  std::string message;       ///< its what() ("" on success)
  int attempts = 0;
  /// Precondition violation (util::InvalidArgument): systemic, never
  /// retried, and rethrown by run() even when other shards merely failed.
  bool fatal = false;

  bool ok() const { return value.has_value(); }
};

namespace detail {

/// Shards may take (index) or (index, attempt); retry-aware callers use the
/// second form to key per-attempt behavior (fault injection) without
/// smuggling attempt state through captures.
template <typename Fn>
decltype(auto) invoke_shard(Fn& shard, std::size_t i, int attempt) {
  if constexpr (std::is_invocable_v<Fn&, std::size_t, int>) {
    return shard(i, attempt);
  } else {
    return shard(i);
  }
}

/// Wraps one shard attempt in its observability envelope: an "exec.shard"
/// phase scope (one trace slice per attempt on whichever worker ran it) and
/// a tick of the "exec.shards" counter. Inlined away entirely when the obs
/// layer is compiled out.
template <typename Fn>
auto observed_shard(Fn& shard, std::size_t i, int attempt)
    -> std::decay_t<decltype(invoke_shard(shard, i, attempt))> {
#ifndef INSOMNIA_OBS_DISABLED
  static obs::Counter& shards = obs::counter("exec.shards");
  OBS_SCOPE("exec.shard");
  shards.add(1);
#endif
  return invoke_shard(shard, i, attempt);
}

// Non-template plumbing (defined in sweep_runner.cpp): retry metrics and
// the keyed full-jitter backoff sleep.
void note_shard_retry();
void note_shard_giveup();
void backoff_sleep(const RetryPolicy& policy, std::size_t shard, int failures);

/// Runs one shard through its whole retry budget. Never throws: every
/// exception settles into the outcome.
template <typename Fn>
auto run_with_retries(Fn& shard, std::size_t i, const RetryPolicy& policy)
    -> ShardOutcome<std::decay_t<decltype(invoke_shard(shard, i, 0))>> {
  using Result = std::decay_t<decltype(invoke_shard(shard, i, 0))>;
  ShardOutcome<Result> out;
  const int budget = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 0; attempt < budget; ++attempt) {
    out.attempts = attempt + 1;
    try {
      out.value.emplace(observed_shard(shard, i, attempt));
      out.error = nullptr;
      out.message.clear();
      return out;
    } catch (const util::InvalidArgument& error) {
      // A violated precondition is the same bug on every retry.
      out.error = std::current_exception();
      out.message = error.what();
      out.fatal = true;
      return out;
    } catch (const std::exception& error) {
      if (!out.error) {
        out.error = std::current_exception();
        out.message = error.what();
      }
    } catch (...) {
      if (!out.error) {
        out.error = std::current_exception();
        out.message = "unknown exception";
      }
    }
    if (attempt + 1 < budget) {
      note_shard_retry();
      backoff_sleep(policy, i, attempt);
    }
  }
  note_shard_giveup();
  return out;
}

}  // namespace detail

/// Applies the failure contract at the top of this file to settled
/// outcomes — lowest-indexed fatal rethrown alone, a single failure
/// rethrown as its original exception, several failures thrown as one
/// AggregateError — and otherwise returns the values, indexed as given.
/// SweepRunner::run is run_settled followed by this; callers that settle
/// work at one grain and report it at another apply it themselves.
template <typename T>
std::vector<T> take_values(std::vector<ShardOutcome<T>> outcomes) {
  std::vector<AggregateError::Failure> failures;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].ok()) continue;
    if (outcomes[i].fatal) std::rethrow_exception(outcomes[i].error);
    failures.push_back({i, outcomes[i].message});
  }
  if (failures.size() == 1) {
    std::rethrow_exception(outcomes[failures.front().index].error);
  }
  if (!failures.empty()) throw AggregateError(std::move(failures));

  std::vector<T> results;
  results.reserve(outcomes.size());
  for (auto& outcome : outcomes) results.push_back(std::move(*outcome.value));
  return results;
}

/// Runs families of independent shards over a reusable thread pool.
class SweepRunner {
 public:
  /// `threads` <= 0 selects default_thread_count() (INSOMNIA_THREADS or the
  /// hardware concurrency). With one thread no pool is spun up at all:
  /// shards execute inline, which doubles as the serial reference path.
  explicit SweepRunner(int threads = 0);

  int threads() const { return threads_; }

  /// Evaluates every shard i in [0, count) through its retry budget and
  /// returns the settled outcomes indexed by i — never throws for shard
  /// failures (a quarantining caller inspects the outcomes). Shards START in
  /// index order: inline one after another on one thread, and through the
  /// pool's FIFO queue otherwise, so a caller that sorts its work
  /// longest-first gets longest-first dispatch. They finish in any order;
  /// outcome order is always by index, and outcomes are bit-identical at any
  /// thread count.
  template <typename Fn>
  auto run_settled(std::size_t count, Fn&& shard, const RetryPolicy& policy = {})
      -> std::vector<ShardOutcome<std::decay_t<decltype(detail::invoke_shard(
          shard, std::size_t{0}, 0))>>> {
    using Result = std::decay_t<decltype(detail::invoke_shard(shard, std::size_t{0}, 0))>;
    std::vector<ShardOutcome<Result>> outcomes(count);
    if (threads_ <= 1 || count <= 1) {
      for (std::size_t i = 0; i < count; ++i) {
        outcomes[i] = detail::run_with_retries(shard, i, policy);
      }
      return outcomes;
    }

    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::size_t remaining = count;
    for (std::size_t i = 0; i < count; ++i) {
      pool_->submit([&, i] {
        outcomes[i] = detail::run_with_retries(shard, i, policy);
        std::lock_guard<std::mutex> lock(done_mutex);
        if (--remaining == 0) done_cv.notify_all();
      });
    }
    {
      std::unique_lock<std::mutex> lock(done_mutex);
      done_cv.wait(lock, [&] { return remaining == 0; });
    }
    return outcomes;
  }

  /// The throwing form: evaluates shard(i) for every i in [0, count) and
  /// returns the results indexed by i. All shards run (and retry) to
  /// settlement first; then take_values applies the failure contract.
  template <typename Fn>
  auto run(std::size_t count, Fn&& shard, const RetryPolicy& policy = {})
      -> std::vector<std::decay_t<decltype(detail::invoke_shard(shard, std::size_t{0},
                                                                0))>> {
    return take_values(run_settled(count, shard, policy));
  }

 private:
  int threads_;
  std::optional<ThreadPool> pool_;  // engaged only when threads_ > 1
};

}  // namespace insomnia::exec
