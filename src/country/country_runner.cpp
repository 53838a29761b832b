#include "country/country_runner.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "city/city_runner.h"
#include "city/neighbourhood_sampler.h"
#include "core/scheme_registry.h"
#include "country/checkpoint.h"
#include "exec/sweep_runner.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/random.h"
#include "util/error.h"

namespace insomnia::country {

namespace {

// Substream salts of the country layer. The city layer owns salts 11-15
// (keyed on the city seed); these are keyed on the COUNTRY seed with
// stream = region << 32 | city, so every city's identity is a pure function
// of (country seed, region, city) and nothing else. Fault-injection salts
// (41-47) live in resilience/fault_plan.h.
constexpr std::uint64_t kCitySamplerSalt = 21;  ///< archetype draw + nbhd count
constexpr std::uint64_t kCitySeedSalt = 22;     ///< the city's own seed

// Worker-process exit protocol. Children settle their whole slice before
// exiting, so an "exhausted" exit still checkpointed every shard that could
// succeed — only the deterministically-failing ones are missing.
constexpr int kChildCleanExit = 0;      ///< every assigned shard checkpointed
constexpr int kChildFatalExit = 1;      ///< escaped exception (systemic)
constexpr int kChildExhaustedExit = 3;  ///< some shards exhausted retries

using Shard = std::pair<std::uint32_t, std::uint32_t>;  // (region, city)

std::uint64_t shard_stream(std::uint32_t region, std::uint32_t city) {
  return (static_cast<std::uint64_t>(region) << 32) | city;
}

std::string shard_name(const Shard& shard) {
  return "(" + std::to_string(shard.first) + "," + std::to_string(shard.second) + ")";
}

void count_event(const char* name) {
#ifndef INSOMNIA_OBS_DISABLED
  obs::counter(name).add(1);
#else
  (void)name;
#endif
}

/// Owns one process's checkpoint file; lazily picks a name no other writer
/// (live or left over from an earlier attempt) owns, then rewrites it
/// atomically with every fresh digest of this invocation on each flush.
/// Under a FaultPlan it can also sabotage its own storage: leave a torn
/// .tmp instead of committing (exactly what a mid-write kill leaves), or
/// corrupt the committed file after the rename (short write / bit flip) —
/// the loud-refusal cases the loader must keep refusing.
class CheckpointWriter {
 public:
  CheckpointWriter(std::string dir, std::uint64_t fingerprint,
                   const resilience::FaultPlan& plan = {},
                   std::uint64_t fault_seed = 0)
      : dir_(std::move(dir)),
        fingerprint_(fingerprint),
        plan_(plan),
        fault_seed_(fault_seed) {}

  void flush(const std::vector<CityDigest>& fresh) {
    if (dir_.empty() || fresh.empty()) return;
    if (path_.empty()) path_ = claim_path();
    const std::uint64_t ordinal = flushes_++;

    if (resilience::fault_fires(plan_.ckpt_torn, fault_seed_, ordinal,
                                resilience::kCkptTornSalt)) {
      resilience::count_injected("ckpt_torn");
      // Tear the write: leave a truncated .tmp and skip the commit. The
      // previous committed file (if any) survives untouched; the next flush
      // rewrites everything fresh, so nothing is lost unless the process
      // dies first — in which case resume re-simulates, which is correct.
      std::ofstream torn(path_ + ".tmp", std::ios::trunc);
      torn << "insomnia-country-checkpoint v" << kCheckpointVersion << "\nshard 0 0";
      return;
    }

    write_checkpoint_file(path_, fingerprint_, fresh);

    if (resilience::fault_fires(plan_.ckpt_short, fault_seed_, ordinal,
                                resilience::kCkptShortSalt)) {
      resilience::count_injected("ckpt_short");
      // A short write that slipped past the atomic rename (e.g. media
      // failure after commit). The loader must refuse this file loudly.
      std::error_code ec;
      const auto size = std::filesystem::file_size(path_, ec);
      if (!ec && size > 1) std::filesystem::resize_file(path_, size / 2, ec);
    }
    if (resilience::fault_fires(plan_.ckpt_flip, fault_seed_, ordinal,
                                resilience::kCkptFlipSalt)) {
      resilience::count_injected("ckpt_flip");
      flip_middle_bit(path_);
    }
  }

 private:
  static void flip_middle_bit(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    if (bytes.empty()) return;
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string claim_path() const {
    // Distinct pids keep concurrent workers apart; the existence probe keeps
    // a recycled pid from clobbering a previous invocation's file (older
    // files hold digests this invocation never re-simulates).
    const std::string stem = dir_ + "/worker-" + std::to_string(::getpid());
    std::string candidate = stem + ".ckpt";
    for (int attempt = 1; std::filesystem::exists(candidate); ++attempt) {
      candidate = stem + "-" + std::to_string(attempt) + ".ckpt";
    }
    return candidate;
  }

  std::string dir_;
  std::uint64_t fingerprint_;
  resilience::FaultPlan plan_;
  std::uint64_t fault_seed_;
  std::uint64_t flushes_ = 0;
  std::string path_;
};

/// How run_shard_list treats a shard that is still failing after its whole
/// retry budget.
enum class FailureMode {
  kThrow,   ///< rethrow / aggregate (fail-fast semantics)
  kSettle,  ///< record it as quarantined and keep going
};

struct ShardListOutcome {
  std::vector<CityDigest> digests;  ///< shard-list order
  std::vector<QuarantinedCity> quarantined;
};

/// A city past its prologue: the keyed sample, its resolved population, and
/// the predicted cost of each neighbourhood (its client count).
struct CityPlan {
  CitySample sample;
  std::vector<core::ScenarioPreset> presets;
  std::vector<int> costs;  ///< by neighbourhood index
};

/// One neighbourhood of an admitted city in the flat work list.
struct NeighbourhoodTask {
  std::size_t slot = 0;   ///< the city's position in the batch
  std::size_t index = 0;  ///< neighbourhood index within the city
  int cost = 0;
};

/// Carries a failed attempt record over to another result type.
template <typename To, typename From>
exec::ShardOutcome<To> failed_as(const exec::ShardOutcome<From>& from) {
  exec::ShardOutcome<To> out;
  out.error = from.error;
  out.message = from.message;
  out.attempts = from.attempts;
  out.fatal = from.fatal;
  return out;
}

void note_city_done() {
#ifndef INSOMNIA_OBS_DISABLED
  static obs::Counter& done = obs::counter("country.cities_done");
  done.add(1);
#endif
}

/// Simulates `shards` in flush-sized batches, checkpointing after each.
/// A batch runs in three stages over one SweepRunner:
///   1. one prologue task per city, through the retry policy and keyed on
///      the city's batch index: the injected slow-shard / shard-throw
///      checks, then sampling. Retry, backoff and quarantine stay per city;
///   2. every neighbourhood of every admitted city as one flat list,
///      dispatched longest-first by predicted cost, so a metro city spreads
///      across all workers instead of pinning one;
///   3. each city's outcomes folded in neighbourhood-index order through
///      city::fold_city, then collapsed to its digest.
/// A neighbourhood still failing after its retries fails its city.
/// Precondition violations (util::InvalidArgument) always propagate,
/// whatever the mode — a config bug must never be quarantined into a
/// silently-smaller country. `kill_after_flush` is the child-kill injection
/// point: SIGKILL this process right after its first non-empty checkpoint
/// flush, guaranteeing the supervisor sees both a dead child AND forward
/// progress.
ShardListOutcome run_shard_list(const CountryConfig& config,
                                const std::vector<core::ScenarioPreset>& population,
                                const std::vector<Shard>& shards,
                                const CountryRunOptions& options,
                                CheckpointWriter& writer, FailureMode mode,
                                bool kill_after_flush = false) {
  const resilience::FaultPlan& plan = options.faults;
  const std::uint64_t fault_seed = plan.seed != 0 ? plan.seed : config.seed;

  exec::SweepRunner runner(config.threads);
  exec::RetryPolicy policy;
  policy.max_attempts = options.max_attempts;
  policy.backoff_base_ms = options.backoff_base_ms;
  policy.backoff_cap_ms = options.backoff_cap_ms;
  policy.seed = config.seed;

  const std::size_t flush =
      options.flush_every > 0
          ? static_cast<std::size_t>(options.flush_every)
          : static_cast<std::size_t>(std::max(8, 2 * runner.threads()));

  ShardListOutcome out;
  out.digests.reserve(shards.size());
  for (std::size_t start = 0; start < shards.size(); start += flush) {
    const std::size_t count = std::min(flush, shards.size() - start);
    const Shard* batch = shards.data() + start;

    // Stage 1: city prologues.
    auto plans = runner.run_settled(
        count,
        [&](std::size_t i, int attempt) {
          const Shard& shard = batch[i];
          const std::uint64_t stream = shard_stream(shard.first, shard.second);
          if (resilience::fault_fires(plan.slow_shard, fault_seed, stream,
                                      resilience::kSlowShardSalt, attempt)) {
            resilience::count_injected("slow_shard");
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(plan.slow_shard_ms));
          }
          if (resilience::fault_fires(plan.shard_throw, fault_seed, stream,
                                      resilience::kShardThrowSalt, attempt)) {
            resilience::count_injected("shard_throw");
            throw resilience::InjectedFault("injected shard fault at city " +
                                            shard_name(shard));
          }
          CityPlan city;
          city.sample = sample_city(config, shard.first, shard.second);
          city.presets = city::resolve_mix(city.sample.city, population);
          const auto n = static_cast<std::size_t>(city.sample.city.neighbourhoods);
          city.costs.reserve(n);
          for (std::size_t k = 0; k < n; ++k) {
            city.costs.push_back(
                city::sample_neighbourhood(city.sample.city, city.presets, k)
                    .scenario.client_count);
          }
          return city;
        },
        policy);

    // Stage 2: the flat neighbourhood list. `tasks` is in canonical
    // (city, neighbourhood) order, so each city's tasks are contiguous from
    // first[slot]; `order` is the dispatch order, longest first, ties kept
    // canonical.
    std::vector<NeighbourhoodTask> tasks;
    std::vector<std::size_t> first(count, 0);
    for (std::size_t slot = 0; slot < count; ++slot) {
      first[slot] = tasks.size();
      if (!plans[slot].ok()) continue;
      const std::vector<int>& costs = plans[slot].value->costs;
      for (std::size_t k = 0; k < costs.size(); ++k) tasks.push_back({slot, k, costs[k]});
    }
    std::vector<std::size_t> order(tasks.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return tasks[a].cost > tasks[b].cost;
    });
    auto ran = runner.run_settled(
        order.size(),
        [&](std::size_t t) {
          const NeighbourhoodTask& task = tasks[order[t]];
          const CityPlan& city = *plans[task.slot].value;
          try {
            return city::simulate_neighbourhood(city.sample.city, city.presets, task.index);
          } catch (const util::InvalidArgument&) {
            throw;  // precondition contracts stay typed
          } catch (const std::exception& error) {
            throw std::runtime_error("neighbourhood " + std::to_string(task.index) +
                                     " of city " + shard_name(batch[task.slot]) +
                                     " failed: " + error.what());
          }
        },
        policy);
    std::vector<exec::ShardOutcome<city::NeighbourhoodOutcome>> landed(tasks.size());
    for (std::size_t t = 0; t < order.size(); ++t) landed[order[t]] = std::move(ran[t]);

    // Stage 3: per-city fold. A city takes its prologue's failure, else its
    // first fatal neighbourhood, else its first failing one.
    std::vector<exec::ShardOutcome<CityDigest>> cities(count);
    for (std::size_t slot = 0; slot < count; ++slot) {
      if (!plans[slot].ok()) {
        cities[slot] = failed_as<CityDigest>(plans[slot]);
        continue;
      }
      const CityPlan& city = *plans[slot].value;
      const auto begin = landed.begin() + static_cast<std::ptrdiff_t>(first[slot]);
      const auto end = begin + static_cast<std::ptrdiff_t>(city.costs.size());
      auto failed = std::find_if(begin, end, [](const auto& o) { return o.fatal; });
      if (failed == end) {
        failed = std::find_if(begin, end, [](const auto& o) { return !o.ok(); });
      }
      if (failed != end) {
        cities[slot] = failed_as<CityDigest>(*failed);
        continue;
      }
      std::vector<city::NeighbourhoodOutcome> outcomes;
      outcomes.reserve(city.costs.size());
      for (auto it = begin; it != end; ++it) outcomes.push_back(std::move(*it->value));
      cities[slot].value.emplace(
          digest_from_city(city::fold_city(city.sample.city, outcomes), batch[slot].first,
                           batch[slot].second, city.sample.template_index));
      note_city_done();
    }

    if (mode == FailureMode::kThrow) {
      for (CityDigest& digest : exec::take_values(std::move(cities))) {
        out.digests.push_back(std::move(digest));
      }
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        if (cities[i].ok()) {
          out.digests.push_back(std::move(*cities[i].value));
          continue;
        }
        if (cities[i].fatal) std::rethrow_exception(cities[i].error);
        out.quarantined.push_back({batch[i].first, batch[i].second, cities[i].message,
                                   cities[i].attempts});
      }
    }

    writer.flush(out.digests);
    if (kill_after_flush && !out.digests.empty()) {
      resilience::count_injected("child_kill");
      ::kill(::getpid(), SIGKILL);
    }
  }
  return out;
}

std::string slice_range(const std::vector<Shard>& slice) {
  if (slice.empty()) return "(none)";
  return shard_name(slice.front()) + " .. " + shard_name(slice.back());
}

}  // namespace

std::string ChildFailure::describe() const {
  std::string text = "child pid " + std::to_string(pid) + " (generation " +
                     std::to_string(generation) + ", slice " + std::to_string(slice) +
                     ", " + std::to_string(shard_count) + " shards " + shard_range +
                     ")";
  if (term_signal != 0) {
    text += " killed by signal " + std::to_string(term_signal);
    const char* name = ::strsignal(term_signal);
    if (name != nullptr) text += std::string(" (") + name + ")";
  } else if (exit_status == kChildExhaustedExit) {
    text += " exited with status " + std::to_string(exit_status) +
            " (some shards exhausted their retry budget)";
  } else {
    text += " exited with status " + std::to_string(exit_status);
  }
  return text;
}

CitySample sample_city(const CountryConfig& config, std::uint32_t region,
                       std::uint32_t city_index) {
  util::require(region < config.regions.size(), "region index out of range");
  const RegionConfig& region_config = config.regions[region];
  util::require(city_index < static_cast<std::uint32_t>(region_config.cities),
                "city index out of range for region " + region_config.name);

  const std::uint64_t stream = shard_stream(region, city_index);
  sim::Random sampler(
      sim::Random::substream_seed(config.seed, stream, kCitySamplerSalt));

  std::vector<double> weights;
  weights.reserve(region_config.portfolio.size());
  for (const CityTemplate& tmpl : region_config.portfolio) weights.push_back(tmpl.weight);

  CitySample sample;
  sample.template_index = sampler.weighted_index(weights);
  const CityTemplate& tmpl = region_config.portfolio[sample.template_index];

  sample.city.mix = tmpl.mix;
  sample.city.neighbourhoods =
      sampler.uniform_int(tmpl.neighbourhoods_min, tmpl.neighbourhoods_max);
  sample.city.seed = sim::Random::substream_seed(config.seed, stream, kCitySeedSalt);
  sample.city.scheme = config.scheme;
  sample.city.peak_start = config.peak_start;
  sample.city.peak_end = config.peak_end;
  return sample;
}

CityDigest simulate_city(const CountryConfig& config,
                         const std::vector<core::ScenarioPreset>& population,
                         std::uint32_t region, std::uint32_t city_index) {
  OBS_SCOPE("country.city");
  const CitySample sample = sample_city(config, region, city_index);
  const std::vector<core::ScenarioPreset> presets =
      city::resolve_mix(sample.city, population);
  const auto n = static_cast<std::size_t>(sample.city.neighbourhoods);
  std::vector<city::NeighbourhoodOutcome> outcomes;
  outcomes.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    outcomes.push_back(city::simulate_neighbourhood(sample.city, presets, k));
  }
  note_city_done();
  return digest_from_city(city::fold_city(sample.city, outcomes), region, city_index,
                          sample.template_index);
}

CountryResult run_country(const CountryConfig& config, const CountryRunOptions& options,
                          const std::vector<core::ScenarioPreset>& population) {
  validate(config);
  core::find_scheme(config.scheme);  // reject unknown schemes before any work
  util::require(options.procs >= 1, "procs must be >= 1");
  util::require(options.max_attempts >= 1, "max_attempts must be >= 1");
  util::require(options.procs == 1 || !options.checkpoint_dir.empty(),
                "process fan-out needs a checkpoint directory: the shared "
                "checkpoint is how worker results reach the parent");

  const std::uint64_t fingerprint = config_fingerprint(config);
  const std::size_t total = total_city_shards(config);
  const std::uint64_t fault_seed =
      options.faults.seed != 0 ? options.faults.seed : config.seed;

  // Resume: load whatever an earlier (interrupted) invocation completed.
  std::vector<CityDigest> digests;
  if (!options.checkpoint_dir.empty()) {
    std::filesystem::create_directories(options.checkpoint_dir);
    digests = load_checkpoint_dir(options.checkpoint_dir, fingerprint);
  }
  const std::size_t resumed = digests.size();

  // Shards not yet in `digests`, canonical order, capped so this invocation
  // completes at most max_city_shards NEW shards (counting across
  // supervision generations, not per generation).
  const auto pending_shards = [&]() {
    std::set<Shard> have;
    for (const CityDigest& digest : digests) have.insert({digest.region, digest.city});
    std::vector<Shard> pending;
    pending.reserve(total - std::min(total, have.size()));
    for (std::uint32_t r = 0; r < config.regions.size(); ++r) {
      const auto cities = static_cast<std::uint32_t>(config.regions[r].cities);
      for (std::uint32_t c = 0; c < cities; ++c) {
        if (have.find({r, c}) == have.end()) pending.push_back({r, c});
      }
    }
    if (options.max_city_shards > 0) {
      const std::size_t fresh = digests.size() - std::min(digests.size(), resumed);
      const std::size_t allowed =
          options.max_city_shards > fresh ? options.max_city_shards - fresh : 0;
      if (pending.size() > allowed) pending.resize(allowed);
    }
    return pending;
  };

  std::vector<QuarantinedCity> quarantined;
  std::vector<ChildFailure> child_failures;
  std::vector<Shard> pending = pending_shards();

  if (options.procs > 1 && !pending.empty()) {
    // Process fan-out under supervision: round-robin the pending shards over
    // `procs` children, forked BEFORE any thread pool exists in this
    // process. Each child settles its slice (retrying failing shards,
    // checkpointing survivors) and exits through the kChild* protocol;
    // results come back through the checkpoint directory. The parent loops
    // GENERATIONS: whatever shards are still missing after a generation —
    // because a child died, or deterministically exhausted its retries —
    // are re-forked until a generation makes no progress. Shards still
    // missing then fall through to the in-process path below, which is the
    // single quarantine authority (so quarantine decisions never depend on
    // which process evaluated a shard).
    for (int generation = 0; !pending.empty(); ++generation) {
      std::vector<std::vector<Shard>> slices(static_cast<std::size_t>(options.procs));
      for (std::size_t i = 0; i < pending.size(); ++i) {
        slices[i % slices.size()].push_back(pending[i]);
      }
      struct Forked {
        pid_t pid;
        std::size_t slice;
      };
      std::vector<Forked> children;
      for (std::size_t k = 0; k < slices.size(); ++k) {
        if (slices[k].empty()) continue;
        const bool kill_child =
            resilience::fault_fires(options.faults.child_kill, fault_seed, k,
                                    resilience::kChildKillSalt,
                                    static_cast<std::uint64_t>(generation));
        const pid_t pid = ::fork();
        util::require_state(pid >= 0,
                            std::string("fork failed: ") + std::strerror(errno));
        if (pid == 0) {
          int status = kChildCleanExit;
          try {
            CheckpointWriter writer(options.checkpoint_dir, fingerprint,
                                    options.faults, fault_seed);
            const ShardListOutcome outcome =
                run_shard_list(config, population, slices[k], options, writer,
                               FailureMode::kSettle, kill_child);
            if (!outcome.quarantined.empty()) status = kChildExhaustedExit;
          } catch (const std::exception& error) {
            std::fprintf(stderr, "country worker %zu failed: %s\n", k, error.what());
            std::fflush(stderr);
            status = kChildFatalExit;
          }
          ::_exit(status);
        }
        children.push_back({pid, k});
      }

      std::vector<ChildFailure> failed_now;
      bool all_exhausted = true;
      for (const Forked& child : children) {
        int status = 0;
        while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) == kChildCleanExit) continue;
        ChildFailure failure;
        failure.pid = static_cast<long>(child.pid);
        failure.generation = generation;
        failure.slice = child.slice;
        failure.shard_count = slices[child.slice].size();
        failure.shard_range = slice_range(slices[child.slice]);
        if (WIFEXITED(status)) {
          failure.exit_status = WEXITSTATUS(status);
          if (failure.exit_status != kChildExhaustedExit) all_exhausted = false;
        } else if (WIFSIGNALED(status)) {
          failure.term_signal = WTERMSIG(status);
          all_exhausted = false;
        }
        count_event("country.child_failures");
        failed_now.push_back(std::move(failure));
      }

      const std::size_t before = digests.size();
      digests = load_checkpoint_dir(options.checkpoint_dir, fingerprint);
      pending = pending_shards();

      if (failed_now.empty()) continue;  // pending is empty (or capped) now
      for (ChildFailure& failure : failed_now) {
        child_failures.push_back(std::move(failure));
      }
      if (options.fail_fast) {
        std::string detail;
        for (const ChildFailure& failure : child_failures) {
          detail += "\n  " + failure.describe();
        }
        throw util::InvalidState(
            "country worker process(es) failed under --fail-fast; completed "
            "shards stay in the checkpoint — fix the cause and rerun to "
            "resume:" + detail);
      }
      if (digests.size() == before || all_exhausted) {
        // No forward progress, or every failure was a deterministic retry
        // exhaustion that a re-fork would replay bit-for-bit. Hand the
        // leftovers to the in-process quarantine authority below.
        break;
      }
      count_event("country.child_reforks");
    }
  }

  pending = pending_shards();
  if (!pending.empty()) {
    obs::Heartbeat::Options beat;
    beat.label = "country";
    beat.interval_sec = options.heartbeat_sec;
    beat.total_shards = pending.size();
    beat.done_counter = "country.cities_done";
    const obs::Heartbeat heartbeat(beat);
    CheckpointWriter writer(options.checkpoint_dir, fingerprint, options.faults,
                            fault_seed);
    ShardListOutcome outcome = run_shard_list(
        config, population, pending, options, writer,
        options.fail_fast ? FailureMode::kThrow : FailureMode::kSettle);
    for (CityDigest& digest : outcome.digests) digests.push_back(std::move(digest));
    quarantined = std::move(outcome.quarantined);
    for (std::size_t i = 0; i < quarantined.size(); ++i) {
      count_event("country.quarantined_cities");
    }
  }

  // A degraded run with NOTHING surviving is not degradation, it is a
  // systemic failure wearing a trench coat — refuse to report it.
  util::require_state(
      quarantined.empty() || !digests.empty(),
      "every city shard failed (" + std::to_string(quarantined.size()) +
          " quarantined, 0 completed): refusing to emit a zero-coverage "
          "degraded report; this failure is systemic, not transient");

  std::sort(quarantined.begin(), quarantined.end(),
            [](const QuarantinedCity& a, const QuarantinedCity& b) {
              return a.region != b.region ? a.region < b.region : a.city < b.city;
            });

  CountryResult result;
  result.config = config;
  result.completed_shards = digests.size();
  result.total_shards = total;
  result.quarantined = std::move(quarantined);
  result.child_failures = std::move(child_failures);
  result.complete = digests.size() + result.quarantined.size() == total;
  if (result.complete) {
    OBS_SCOPE("country.fold");
    std::sort(digests.begin(), digests.end(), digest_order);
    std::vector<std::string> names;
    names.reserve(config.regions.size());
    for (const RegionConfig& region : config.regions) names.push_back(region.name);
    CountryMetrics metrics(std::move(names));
    for (const CityDigest& digest : digests) metrics.add(digest);
    result.metrics = std::move(metrics);
  }
  return result;
}

}  // namespace insomnia::country
