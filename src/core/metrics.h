// Per-run measurement products: exact energy integrals, state time series,
// flow completion times and per-gateway online time — everything Figs. 6-12
// and the §5.2.3 table are computed from.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "stats/timeseries.h"

namespace insomnia::core {

/// Everything recorded during one simulated day under one scheme.
struct RunMetrics {
  double duration = 0.0;  ///< trace length (excludes drain time)

  // Power draw over time, watts (piecewise-constant, exact).
  stats::StepSeries user_power{0.0, 0.0};   ///< all household equipment
  stats::StepSeries isp_power{0.0, 0.0};    ///< modems + cards + shelf

  // State counts over time.
  stats::StepSeries online_gateways{0.0, 0.0};
  stats::StepSeries online_cards{0.0, 0.0};

  /// Flow completion time per trace flow id; NaN when the flow never
  /// finished inside the simulation horizon.
  std::vector<double> completion_time;

  /// Seconds each gateway spent online (active or waking) during the day.
  std::vector<double> gateway_online_time;

  // Counters.
  long gateway_wake_events = 0;
  long bh2_moves = 0;          ///< BH2 assignment changes (oscillation gauge)
  long bh2_home_returns = 0;

  /// Discrete events the simulator dispatched during the day (arrivals,
  /// completions, wake-ups, idle checks, ...). Reported per day in the
  /// RunReport; does not affect any paper artefact.
  std::uint64_t executed_events = 0;

  /// Total energy over the day (J): user + ISP.
  double total_energy() const {
    return user_power.integral(0.0, duration) + isp_power.integral(0.0, duration);
  }
  double user_energy() const { return user_power.integral(0.0, duration); }
  double isp_energy() const { return isp_power.integral(0.0, duration); }
};

/// Fractional savings of `run` vs `baseline` over [t0, t1].
double savings_fraction(const RunMetrics& run, const RunMetrics& baseline, double t0, double t1);

/// Savings binned across the day: one fraction per bin, averaged exactly.
std::vector<double> binned_savings(const RunMetrics& run, const RunMetrics& baseline,
                                   std::size_t bins);

/// Share of the total savings attributable to the ISP side over [t0, t1]
/// (Fig. 8). Returns nullopt when the total savings are ~0 (the share is
/// undefined there, e.g. under no-sleep).
std::optional<double> isp_share_of_savings(const RunMetrics& run, const RunMetrics& baseline,
                                           double t0, double t1);

/// Per-flow completion-time increase of `run` vs `baseline`, as fractions
/// (0.07 = +7 %). Only flows that completed in both runs are compared.
std::vector<double> completion_time_increase(const RunMetrics& run, const RunMetrics& baseline);

/// Per-gateway percentage change in online time of `run` vs `baseline`
/// (Fig. 9b; -1.0 = the gateway never powered on under `run`). Gateways
/// idle in both runs contribute 0.
std::vector<double> online_time_variation(const RunMetrics& run, const RunMetrics& baseline);

}  // namespace insomnia::core
