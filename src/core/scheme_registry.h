// String-keyed scheme registry: every scheme, paper or beyond, is selected
// by name. A SchemeSpec bundles everything one sleep scheme needs —
// a Policy factory, the DSLAM switch fabric it assumes, and display
// metadata — so adding a scheme is a registration, not a refactor of every
// driver. The paper's eight §5.1 combinations are pre-registered built-ins;
// two beyond-paper schemes (threshold-jittered BH2, multi-level doze) show
// the extension path, and scripts/drivers select any of them by name via
// --scheme/--list-schemes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/metrics.h"
#include "core/runtime.h"
#include "core/scenario.h"
#include "dslam/dslam.h"
#include "topology/access_topology.h"
#include "trace/records.h"

namespace insomnia::core {

/// Everything the engine needs to run one registered scheme.
struct SchemeSpec {
  /// Selection token (kebab-case; what --scheme and RunSpec carry).
  std::string name;
  /// Human-readable name as used in the paper's figures / banners.
  std::string display;
  /// One-line description for --list-schemes.
  std::string summary;
  /// The HDF fabric the scheme assumes (applied to the scenario's DSLAM).
  dslam::SwitchMode switch_mode = dslam::SwitchMode::kFixed;
  /// Fig. 9b pairing: compare per-gateway online time against the same-run
  /// SoI reference (the BH2-family fairness convention).
  bool fairness_vs_soi = false;
  /// Builds the scheme's user-side policy. Called once per simulated day
  /// with the fully configured scenario (fabric already applied).
  std::function<std::unique_ptr<Policy>(const ScenarioConfig&)> make_policy;
};

/// An ordered, name-indexed collection of SchemeSpecs. Lookups are O(1);
/// iteration follows registration order (stable --list-schemes output).
/// Registration is not thread-safe; register before spawning workers.
class SchemeRegistry {
 public:
  SchemeRegistry() = default;

  /// Registers a scheme. Throws util::InvalidArgument on an empty name, a
  /// missing factory, or a duplicate name.
  void add(SchemeSpec spec);

  bool contains(const std::string& name) const;

  /// Looks a scheme up by name; throws util::InvalidArgument listing the
  /// valid names when `name` is unknown (a CLI typo must say what would
  /// have worked).
  const SchemeSpec& find(const std::string& name) const;

  /// All registered schemes in registration order.
  const std::vector<SchemeSpec>& specs() const { return specs_; }

  /// Registered names in registration order.
  std::vector<std::string> names() const;

 private:
  std::vector<SchemeSpec> specs_;
  std::unordered_map<std::string, std::size_t> index_;
};

/// The process-wide registry, pre-loaded with the paper's eight schemes
/// (names: no-sleep, soi, soi-kswitch, soi-fullswitch, bh2-kswitch,
/// bh2-nobackup-kswitch, bh2-fullswitch, optimal) and the beyond-paper
/// built-ins (bh2-jitter, multilevel-doze).
SchemeRegistry& scheme_registry();

/// scheme_registry().find(name).
const SchemeSpec& find_scheme(const std::string& name);

/// One registered scheme's day, built the one way every scheme day is: the
/// spec's switch fabric applied to a copy of the scenario, the policy built
/// over that copy, and the runtime seeded with `seed` (which feeds only the
/// scheme's own randomness). run_scheme runs one over a trace; the online
/// LiveController steps one built in LiveMode. A fabric variant (the
/// switch-size ablation) is a SchemeSpec copy with another switch_mode over
/// a scenario with another dslam.switch_size.
class SchemeDay {
 public:
  /// A day over `flows`, which is borrowed and must outlive the day.
  SchemeDay(const ScenarioConfig& scenario, const topo::AccessTopology& topology,
            const trace::FlowTrace& flows, const SchemeSpec& spec, std::uint64_t seed);
  /// A live day, fed through runtime().append_live_arrivals.
  SchemeDay(const ScenarioConfig& scenario, const topo::AccessTopology& topology,
            const SchemeSpec& spec, std::uint64_t seed, AccessRuntime::LiveMode mode);

  SchemeDay(const SchemeDay&) = delete;
  SchemeDay& operator=(const SchemeDay&) = delete;

  AccessRuntime& runtime() { return runtime_; }

  /// runtime().run() and runtime().finish_live(covered_duration), each
  /// recorded as one simulated day in the "day.events" histogram.
  RunMetrics run();
  RunMetrics finish(double covered_duration);

 private:
  ScenarioConfig scenario_;  ///< the caller's scenario with the spec's fabric
  std::unique_ptr<Policy> policy_;
  AccessRuntime runtime_;
};

/// Runs one registered scheme over one day (a SchemeDay over the trace).
/// The same `topology` and `flows` must be passed to every scheme being
/// compared (paired-run methodology).
RunMetrics run_scheme(const ScenarioConfig& scenario, const topo::AccessTopology& topology,
                      const trace::FlowTrace& flows, const SchemeSpec& spec,
                      std::uint64_t seed);

/// Name-keyed convenience over the global registry.
RunMetrics run_scheme(const ScenarioConfig& scenario, const topo::AccessTopology& topology,
                      const trace::FlowTrace& flows, const std::string& scheme,
                      std::uint64_t seed);

/// The no-sleep day (NoSleepPolicy, fixed DSLAM wiring) over an empty trace.
/// Devices draw by power state, not load, and no-sleep fixes every state at
/// t=0, so its energy, online series and online times equal
/// run_scheme(..., "no-sleep", seed) over any trace, bit for bit
/// (tests/test_core_baseline.cpp). `duration` is the span covered (less than
/// scenario.duration for an interrupted live run). completion_time is empty,
/// so Fig. 9a still simulates its baseline. Not a simulated day: records no
/// "day.events" and opens no "day.run" scope.
RunMetrics run_no_sleep_baseline(const ScenarioConfig& scenario,
                                 const topo::AccessTopology& topology, std::uint64_t seed,
                                 double duration);

}  // namespace insomnia::core
