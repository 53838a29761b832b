// The paired day — one day of traffic replayed under a set of schemes and
// the no-sleep baseline on the same trace and topology — and its per-day
// summary: the one kernel every driver simulates its days through (Engine,
// and so every figure driver; the density sweep; the city fleet), the
// substream salts those days draw from, and the summarization and run-order
// fold behind Engine::run. The online LiveController (src/live/) steps its
// day itself, so it takes only the salts, the summary and the fold; one copy
// of the arithmetic makes the live replay-equivalence gate a byte-compare.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "core/metrics.h"
#include "core/scheme_registry.h"

namespace insomnia::core {

/// Substream salts of a paired day, keyed sim::Random::substream_seed(seed,
/// stream, salt). Scheme `s` of a multi-scheme day draws from `scheme + s`.
/// Callers build the topology themselves (shared or per day, overlap or
/// binomial) but take its salt from here.
struct DayKeys {
  std::uint64_t topology;
  std::uint64_t trace;
  std::uint64_t baseline;
  std::uint64_t scheme;
};

/// Engine (and so every figure driver) and livectl: one topology from
/// stream 0, run r's day from stream r.
inline constexpr DayKeys kRunDayKeys{7, 1, 2, 100};

/// Fleet neighbourhoods, streamed by neighbourhood index under the city
/// seed. The neighbourhood sampler keeps salt 11.
inline constexpr DayKeys kNeighbourhoodDayKeys{12, 13, 14, 15};

/// The Fig. 10 density sweep at `level`: a fresh binomial topology and a
/// scheme day per (level, run), over run r's trace.
constexpr DayKeys density_day_keys(std::uint64_t level) {
  return {300 + level, kRunDayKeys.trace, kRunDayKeys.baseline, 400 + level};
}

/// The one topology of an Engine run, which every run's day shares, and of
/// livectl's day: the overlap topology of stream 0 under kRunDayKeys.
topo::AccessTopology run_topology(const ScenarioConfig& scenario, std::uint64_t seed);

/// Which no-sleep baseline a paired day carries.
enum class Baseline {
  kTrafficFree,  ///< run_no_sleep_baseline: energy and online series only
  kSimulated,    ///< the no-sleep scheme over the trace (Fig. 9a needs its FCTs)
};

/// The simulated products of one paired day.
struct PairedDay {
  RunMetrics baseline;
  std::vector<RunMetrics> schemes;  ///< one per requested scheme, in order
  std::uint64_t flows = 0;          ///< trace records replayed
};

/// Simulates one paired day on `topology`: the trace from (seed, stream,
/// keys.trace) unless `recorded` is given, the baseline from keys.baseline,
/// and scheme s from keys.scheme + s. Pure function of its arguments.
PairedDay simulate_paired_day(const ScenarioConfig& scenario,
                              const topo::AccessTopology& topology, std::uint64_t seed,
                              std::uint64_t stream, const DayKeys& keys,
                              const std::vector<const SchemeSpec*>& schemes,
                              Baseline baseline,
                              const trace::FlowTrace* recorded = nullptr);

/// Exact per-bin energy integrals of one run (J), per side.
struct EnergyBins {
  std::vector<double> user;
  std::vector<double> isp;
};

/// Everything one scheme's paired day contributes to a RunReport.
struct PairedDaySummary {
  EngineDay day;
  EnergyBins baseline_energy;
  EnergyBins scheme_energy;
  std::vector<double> online_gateways;  ///< binned means
  std::vector<double> online_cards;     ///< binned means
  std::vector<double> fct_increase;           ///< Fig. 9a; RunSpec::fct only
  std::vector<double> online_time_variation;  ///< Fig. 9b; SoI listed first only
};

/// Summarizes one paired day. `flows` is the number of trace records
/// replayed; the peak window and bin count come from the run spec.
PairedDaySummary summarize_paired_day(const RunMetrics& baseline,
                                      const RunMetrics& metrics, std::uint64_t flows,
                                      std::size_t bins, double peak_start,
                                      double peak_end);

/// Folds day summaries into `report` strictly in day order — independent of
/// which thread computed each day. Reads report.runs and report.bins (the
/// caller sets the spec-echo fields first) and fills days, the aggregates,
/// the day series and the pooled QoS samples. User and ISP energy are summed
/// apart, per bin and per day: ISP share = isp_saved / (user_saved + isp_saved).
void fold_paired_days(const std::vector<PairedDaySummary>& days, RunReport& report);

}  // namespace insomnia::core
