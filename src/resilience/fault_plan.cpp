#include "resilience/fault_plan.h"

#include <cmath>
#include <cstdlib>
#include <vector>

#include "obs/metrics.h"
#include "sim/random.h"
#include "util/duration.h"
#include "util/error.h"
#include "util/strings.h"

namespace insomnia::resilience {

namespace {

std::string trim_ms(double ms) {
  // "500ms" rather than "500.00ms" for whole values.
  std::string text = util::format_fixed(ms, ms == static_cast<long long>(ms) ? 0 : 2);
  return text + "ms";
}

double parse_probability(const std::string& entry, std::string_view token) {
  const auto value = util::parse_double(token);
  util::require(value.has_value() && *value >= 0.0 && *value <= 1.0,
                "fault-spec entry \"" + entry +
                    "\": probability must be a number in [0, 1]");
  return *value;
}

double parse_duration_ms(const std::string& entry, std::string_view token) {
  const auto seconds =
      util::parse_duration_seconds(token, util::DurationUnit::kMilliseconds);
  // A duration finite in seconds can still overflow in milliseconds
  // ("1e306s"); an infinite sleep is not a fault to inject.
  util::require(seconds.has_value() && std::isfinite(*seconds * 1000.0),
                "fault-spec entry \"" + entry + "\": duration must be " +
                    util::duration_grammar_help());
  return *seconds * 1000.0;
}

FaultPlan plan_from_env() {
  const char* spec = std::getenv("INSOMNIA_FAULTS");
  return spec == nullptr ? FaultPlan{} : parse_fault_plan(spec);
}

FaultPlan& global_slot() {
  static FaultPlan plan = plan_from_env();
  return plan;
}

}  // namespace

bool FaultPlan::any() const {
  return shard_throw > 0.0 || slow_shard > 0.0 || child_kill > 0.0 ||
         ckpt_torn > 0.0 || ckpt_short > 0.0 || ckpt_flip > 0.0 ||
         trace_garble > 0.0;
}

std::string FaultPlan::summary() const {
  std::vector<std::string> parts;
  const auto entry = [&](const char* key, double p) {
    if (p > 0.0) parts.push_back(std::string(key) + "=" + util::format_fixed(p, 2));
  };
  entry("shard-throw", shard_throw);
  if (slow_shard > 0.0) {
    parts.push_back("slow-shard=" + util::format_fixed(slow_shard, 2) + ":" +
                    trim_ms(slow_shard_ms));
  }
  entry("child-kill", child_kill);
  entry("ckpt-torn", ckpt_torn);
  entry("ckpt-short", ckpt_short);
  entry("ckpt-flip", ckpt_flip);
  entry("trace-garble", trace_garble);
  return parts.empty() ? "none" : util::join(parts, ", ");
}

FaultPlan parse_fault_plan(std::string_view spec) {
  FaultPlan plan;
  if (util::trim(spec).empty()) return plan;
  for (const std::string& raw : util::split(spec, ',')) {
    const std::string entry{util::trim(raw)};
    const std::size_t eq = entry.find('=');
    util::require(eq != std::string::npos && eq > 0,
                  "fault-spec entry \"" + entry + "\" is not key=value");
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "seed") {
      const auto seed = util::parse_uint64(value);
      util::require(seed.has_value(),
                    "fault-spec entry \"" + entry + "\": seed must be a uint64");
      plan.seed = *seed;
    } else if (key == "shard-throw") {
      plan.shard_throw = parse_probability(entry, value);
    } else if (key == "slow-shard") {
      const std::size_t colon = value.find(':');
      plan.slow_shard = parse_probability(
          entry, colon == std::string::npos ? value : value.substr(0, colon));
      if (colon != std::string::npos) {
        plan.slow_shard_ms = parse_duration_ms(entry, value.substr(colon + 1));
      }
    } else if (key == "child-kill") {
      plan.child_kill = parse_probability(entry, value);
    } else if (key == "ckpt-torn") {
      plan.ckpt_torn = parse_probability(entry, value);
    } else if (key == "ckpt-short") {
      plan.ckpt_short = parse_probability(entry, value);
    } else if (key == "ckpt-flip") {
      plan.ckpt_flip = parse_probability(entry, value);
    } else if (key == "trace-garble") {
      plan.trace_garble = parse_probability(entry, value);
    } else {
      throw util::InvalidArgument(
          "fault-spec entry \"" + entry + "\": unknown fault \"" + key +
          "\"; valid keys: shard-throw, slow-shard, child-kill, ckpt-torn, "
          "ckpt-short, ckpt-flip, trace-garble, seed");
    }
  }
  return plan;
}

std::string fault_spec_help() {
  return std::string(
             "fault-spec grammar: entry (\",\" entry)* with entry := key=value\n"
             "  value is a probability in [0, 1]; slow-shard also takes\n"
             "  probability:duration where duration is ") +
         util::duration_grammar_help() +
         ".\n"
         "\n"
         "keys:\n"
         "  shard-throw    p       a city shard attempt throws (retries re-draw)\n"
         "  slow-shard     p[:dur] a shard attempt sleeps for dur first "
         "(default 100ms)\n"
         "  child-kill     p       a --procs worker SIGKILLs itself after its "
         "first checkpoint flush\n"
         "  ckpt-torn      p       a checkpoint flush leaves a torn .tmp beside "
         "the last good file\n"
         "  ckpt-short     p       the committed checkpoint file is truncated\n"
         "  ckpt-flip      p       one bit of the committed checkpoint file is "
         "flipped\n"
         "  trace-garble   p       a flow-trace data row fails to parse\n"
         "  seed           uint64  keys sites with no run seed of their own\n"
         "\n"
         "e.g. --fault-spec \"shard-throw=0.01,slow-shard=0.02:500ms,"
         "child-kill=0.05\"\n";
}

const FaultPlan& global_fault_plan() { return global_slot(); }

void set_global_fault_plan(const FaultPlan& plan) { global_slot() = plan; }

bool fault_fires(double probability, std::uint64_t seed, std::uint64_t stream,
                 std::uint64_t salt, std::uint64_t attempt) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  // Two-level keying: first collapse (seed, stream, salt) into a site seed,
  // then fold the attempt in. Keeps the full 64-bit stream space available
  // to call sites while attempts still draw independent decisions.
  const std::uint64_t site = sim::Random::substream_seed(seed, stream, salt);
  sim::Random rng(sim::Random::substream_seed(site, attempt, salt));
  return rng.bernoulli(probability);
}

void count_injected(const char* what) {
#ifndef INSOMNIA_OBS_DISABLED
  // Injection is rare by construction, so the registry-mutex lookup per fire
  // is fine — no cached statics needed across the per-site names.
  obs::counter(std::string("resilience.injected.") + what).add(1);
#else
  (void)what;
#endif
}

}  // namespace insomnia::resilience
