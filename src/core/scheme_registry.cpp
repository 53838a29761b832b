#include "core/scheme_registry.h"

#include <utility>

#include "core/bh2_policy.h"
#include "core/home_policy.h"
#include "core/multilevel_policy.h"
#include "core/optimal_policy.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/error.h"
#include "util/strings.h"

namespace insomnia::core {

namespace {

ScenarioConfig with_fabric(ScenarioConfig scenario, const SchemeSpec& spec) {
  scenario.dslam.mode = spec.switch_mode;
  return scenario;
}

// Records one simulated day's event count. Deterministic values (event
// counts, not wall time), so the histogram folds identically across thread
// counts — test_obs_determinism pins that.
RunMetrics recorded(RunMetrics metrics) {
#ifndef INSOMNIA_OBS_DISABLED
  static obs::Histogram& day_events = obs::histogram("day.events");
  day_events.record(static_cast<double>(metrics.executed_events));
#endif
  return metrics;
}

}  // namespace

void SchemeRegistry::add(SchemeSpec spec) {
  util::require(!spec.name.empty(), "scheme name must not be empty");
  util::require(static_cast<bool>(spec.make_policy),
                "scheme \"" + spec.name + "\" needs a policy factory");
  util::require(index_.find(spec.name) == index_.end(),
                "scheme \"" + spec.name + "\" is already registered");
  index_.emplace(spec.name, specs_.size());
  specs_.push_back(std::move(spec));
}

bool SchemeRegistry::contains(const std::string& name) const {
  return index_.find(name) != index_.end();
}

const SchemeSpec& SchemeRegistry::find(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    throw util::InvalidArgument("unknown scheme \"" + name + "\"; valid schemes: " +
                                util::join(names(), ", "));
  }
  return specs_[it->second];
}

std::vector<std::string> SchemeRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const SchemeSpec& spec : specs_) out.push_back(spec.name);
  return out;
}

namespace {

template <typename P, typename... Args>
std::function<std::unique_ptr<Policy>(const ScenarioConfig&)> factory(Args... args) {
  return [args...](const ScenarioConfig&) -> std::unique_ptr<Policy> {
    return std::make_unique<P>(args...);
  };
}

SchemeRegistry built_ins() {
  SchemeRegistry registry;
  // The paper's eight §5.1 scheme/fabric combinations, in figure order.
  registry.add({"no-sleep", "No-sleep", "baseline: everything always on",
                dslam::SwitchMode::kFixed, false, factory<NoSleepPolicy>()});
  registry.add({"soi", "SoI", "Sleep-on-Idle, fixed DSLAM wiring",
                dslam::SwitchMode::kFixed, false, factory<SoiPolicy>()});
  registry.add({"soi-kswitch", "SoI + k-switch", "Sleep-on-Idle over 4-switches",
                dslam::SwitchMode::kKSwitch, false, factory<SoiPolicy>()});
  registry.add({"soi-fullswitch", "SoI + full-switch",
                "Sleep-on-Idle over a full switch (§5.2.3 comparison)",
                dslam::SwitchMode::kFullSwitch, false, factory<SoiPolicy>()});
  registry.add({"bh2-kswitch", "BH2 + k-switch",
                "Broadband Hitch-Hiking over 4-switches — the headline scheme",
                dslam::SwitchMode::kKSwitch, true,
                [](const ScenarioConfig& config) -> std::unique_ptr<Policy> {
                  return std::make_unique<Bh2Policy>(config.bh2.backup);
                }});
  registry.add({"bh2-nobackup-kswitch", "BH2 w/o backup + k-switch",
                "BH2 without backup associations (Fig. 7/9)",
                dslam::SwitchMode::kKSwitch, true, factory<Bh2Policy>(0)});
  registry.add({"bh2-fullswitch", "BH2 + full-switch",
                "BH2 over a full switch (§5.2.3 comparison)",
                dslam::SwitchMode::kFullSwitch, true,
                [](const ScenarioConfig& config) -> std::unique_ptr<Policy> {
                  return std::make_unique<Bh2Policy>(config.bh2.backup);
                }});
  registry.add({"optimal", "Optimal",
                "centralized ILP + instantaneous full switching (upper bound)",
                dslam::SwitchMode::kFullSwitch, false, factory<OptimalPolicy>()});

  // Beyond-paper built-ins: the extension path the registry exists for.
  registry.add({"bh2-jitter", "BH2 + k-switch (jittered thresholds)",
                "BH2 with per-terminal load thresholds scaled by U(0.75, 1.25)",
                dslam::SwitchMode::kKSwitch, true,
                [](const ScenarioConfig& config) -> std::unique_ptr<Policy> {
                  return std::make_unique<Bh2Policy>(config.bh2.backup,
                                                     /*threshold_jitter=*/0.25);
                }});
  registry.add({"multilevel-doze", "Multi-level doze",
                "shallow/deep doze states; deep wake-ups avoided via active neighbours",
                dslam::SwitchMode::kKSwitch, true, factory<MultiLevelDozePolicy>()});
  return registry;
}

}  // namespace

SchemeRegistry& scheme_registry() {
  static SchemeRegistry registry = built_ins();
  return registry;
}

const SchemeSpec& find_scheme(const std::string& name) { return scheme_registry().find(name); }

SchemeDay::SchemeDay(const ScenarioConfig& scenario, const topo::AccessTopology& topology,
                     const trace::FlowTrace& flows, const SchemeSpec& spec,
                     std::uint64_t seed)
    : scenario_(with_fabric(scenario, spec)),
      policy_(spec.make_policy(scenario_)),
      runtime_(scenario_, topology, flows, *policy_, sim::Random(seed)) {}

SchemeDay::SchemeDay(const ScenarioConfig& scenario, const topo::AccessTopology& topology,
                     const SchemeSpec& spec, std::uint64_t seed,
                     AccessRuntime::LiveMode mode)
    : scenario_(with_fabric(scenario, spec)),
      policy_(spec.make_policy(scenario_)),
      runtime_(scenario_, topology, *policy_, sim::Random(seed), mode) {}

RunMetrics SchemeDay::run() { return recorded(runtime_.run()); }

RunMetrics SchemeDay::finish(double covered_duration) {
  return recorded(runtime_.finish_live(covered_duration));
}

RunMetrics run_scheme(const ScenarioConfig& scenario, const topo::AccessTopology& topology,
                      const trace::FlowTrace& flows, const SchemeSpec& spec,
                      std::uint64_t seed) {
  OBS_SCOPE("day.run");
  return SchemeDay(scenario, topology, flows, spec, seed).run();
}

RunMetrics run_scheme(const ScenarioConfig& scenario, const topo::AccessTopology& topology,
                      const trace::FlowTrace& flows, const std::string& scheme,
                      std::uint64_t seed) {
  return run_scheme(scenario, topology, flows, find_scheme(scheme), seed);
}

RunMetrics run_no_sleep_baseline(const ScenarioConfig& scenario,
                                 const topo::AccessTopology& topology, std::uint64_t seed,
                                 double duration) {
  ScenarioConfig configured = scenario;
  configured.dslam.mode = dslam::SwitchMode::kFixed;
  configured.duration = duration;
  const trace::FlowTrace no_traffic;
  NoSleepPolicy policy;
  return AccessRuntime(configured, topology, no_traffic, policy, sim::Random(seed)).run();
}

}  // namespace insomnia::core
