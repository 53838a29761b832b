// The experiment facade: a declarative RunSpec in, one structured RunReport
// per scheme out. It resolves a scenario (preset name or inline config),
// builds the shared topology, runs `runs` paired days through
// core::simulate_paired_day (no-sleep baseline + every listed scheme on the
// same trace), shards them over the parallel sweep engine, and folds each
// scheme's days with core::fold_paired_days (bit-identical for any thread
// count). engine01_run, livectl's offline twin and every figure driver
// (Figs. 6-9, the §5.2.3 and §5.4 tables) run through it. RunReport
// serializes to JSON via util/json_writer for machine consumers (--json, CI
// checks, notebooks).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/scheme_registry.h"

namespace insomnia::core {

/// Declarative description of one engine run.
struct RunSpec {
  /// Scenario preset name (core/scenario_presets.h); empty selects the
  /// paper default unless `scenario` is set. Unknown names throw
  /// util::InvalidArgument listing the valid presets.
  std::string preset;
  /// Inline scenario; mutually exclusive with a non-empty `preset`.
  std::optional<ScenarioConfig> scenario;
  /// Path of a recorded flow trace (trace/trace_io.h) replayed in every
  /// run; empty generates a fresh synthetic day per run (§5.2 methodology).
  std::string trace_file;
  /// Registered scheme name (core/scheme_registry.h) that run(spec) runs;
  /// unknown names throw util::InvalidArgument listing the valid schemes.
  std::string scheme = "bh2-kswitch";
  std::uint64_t seed = 42;
  int runs = 1;      ///< paired days (§5.2 uses 10, averaged)
  int threads = 0;   ///< 0 = auto (INSOMNIA_THREADS / hardware concurrency)
  std::size_t bins = 24;  ///< day-series resolution
  double peak_start = 11.0 * 3600.0;  ///< §5.2.5 peak window
  double peak_end = 19.0 * 3600.0;
  /// Fig. 9a: simulate the no-sleep day over the trace, not the traffic-free
  /// baseline (same energies: tests/test_core_baseline.cpp), and pool each
  /// scheme's flow completion-time increase into RunReport::fct_increase.
  bool fct = false;
};

/// One paired simulated day (baseline + scheme on the same trace).
struct EngineDay {
  double baseline_user_energy = 0.0;  ///< J
  double baseline_isp_energy = 0.0;
  double user_energy = 0.0;
  double isp_energy = 0.0;
  double savings = 0.0;    ///< fraction vs baseline, whole day
  double isp_share = 0.0;  ///< ISP share of the savings
  double peak_online_gateways = 0.0;
  double peak_online_cards = 0.0;
  long wake_events = 0;
  long bh2_moves = 0;
  long bh2_home_returns = 0;
  std::uint64_t executed_events = 0;  ///< scheme run only
  std::uint64_t flows = 0;            ///< trace flows replayed
};

/// Structured result of Engine::run.
struct RunReport {
  // Resolved spec echo.
  std::string scheme;
  std::string scheme_display;
  std::string preset;      ///< preset name, or "(inline)" for inline configs
  std::string trace_file;  ///< empty for synthetic traces
  std::uint64_t seed = 0;
  int runs = 0;
  std::size_t bins = 0;
  double peak_start = 0.0;
  double peak_end = 0.0;
  int clients = 0;
  int gateways = 0;

  std::vector<EngineDay> days;  ///< one entry per run, in run order

  // Aggregates across runs (energy-weighted, user and ISP summed apart).
  double day_savings = 0.0;
  double day_isp_share = 0.0;
  double peak_online_gateways = 0.0;  ///< mean across runs
  double mean_wake_events = 0.0;
  std::uint64_t executed_events = 0;  ///< total, scheme runs

  // Day series (one value per bin).
  std::vector<double> savings_series;          ///< energy-weighted across runs
  std::vector<double> online_gateways_series;  ///< mean count

  // Figure products, not serialized by to_json.
  double peak_online_cards = 0.0;            ///< mean across runs (§5.2.3)
  std::vector<double> isp_share_series;      ///< ISP share of the savings (Fig. 8)
  std::vector<double> online_cards_series;   ///< mean count
  std::vector<double> fct_increase;          ///< Fig. 9a, pooled; RunSpec::fct only
  std::vector<double> online_time_variation; ///< Fig. 9b vs the same day's SoI, pooled

  /// Stable-key-order, locale-independent JSON document. With
  /// `include_telemetry` a "telemetry" block (counters, phase wall times,
  /// RSS — see docs/TELEMETRY.md) is appended; it contains run-dependent
  /// wall-clock values, so byte-compare consumers keep the default.
  std::string to_json(bool include_telemetry = false) const;
};

/// The facade. Stateless apart from the registry it resolves schemes in.
class Engine {
 public:
  /// Uses the process-wide scheme registry.
  Engine();
  /// Resolves schemes in `registry` (tests, embeddings). The baseline is
  /// run_no_sleep_baseline, or under RunSpec::fct the global "no-sleep".
  explicit Engine(const SchemeRegistry& registry);

  /// Runs `schemes` (spec.scheme is not read) over the same paired days: one
  /// report per scheme, in list order. Run r is simulate_paired_day's stream
  /// r under kRunDayKeys (core/day_summary.h), scheme s drawing from
  /// kRunDayKeys.scheme + s. A fairness_vs_soi scheme gets
  /// online_time_variation against the day's "soi" when "soi" is listed,
  /// which must then come first (else util::InvalidState).
  std::vector<RunReport> run(const RunSpec& spec,
                             const std::vector<std::string>& schemes) const;

  /// The one-scheme case: run(spec, {spec.scheme}).
  RunReport run(const RunSpec& spec) const;

 private:
  const SchemeRegistry* registry_;
};

/// The report of `scheme` among a multi-scheme run's reports; throws
/// util::InvalidArgument when the scheme was not run.
const RunReport& find_report(const std::vector<RunReport>& reports,
                             const std::string& scheme);

}  // namespace insomnia::core
