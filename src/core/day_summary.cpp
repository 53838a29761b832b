#include "core/day_summary.h"

#include "sim/random.h"
#include "stats/timeseries.h"
#include "trace/synthetic_crawdad.h"

namespace insomnia::core {

namespace {

EnergyBins bin_energy(const RunMetrics& metrics, std::size_t bins) {
  EnergyBins out;
  out.user.resize(bins);
  out.isp.resize(bins);
  const double width = metrics.duration / static_cast<double>(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    const double lo = width * static_cast<double>(i);
    const double hi = (i + 1 == bins) ? metrics.duration : lo + width;
    out.user[i] = metrics.user_power.integral(lo, hi);
    out.isp[i] = metrics.isp_power.integral(lo, hi);
  }
  return out;
}

}  // namespace

PairedDay simulate_paired_day(const ScenarioConfig& scenario,
                              const topo::AccessTopology& topology, std::uint64_t seed,
                              std::uint64_t stream, const DayKeys& keys,
                              const std::vector<const SchemeSpec*>& schemes,
                              Baseline baseline, const trace::FlowTrace* recorded) {
  const auto salted = [&](std::uint64_t salt) {
    return sim::Random::substream_seed(seed, stream, salt);
  };
  trace::FlowTrace generated;
  if (recorded == nullptr) {
    sim::Random trace_rng(salted(keys.trace));
    generated = trace::SyntheticCrawdadGenerator(scenario.traffic).generate(trace_rng);
  }
  const trace::FlowTrace& flows = recorded != nullptr ? *recorded : generated;

  PairedDay day;
  day.flows = static_cast<std::uint64_t>(flows.size());
  if (baseline == Baseline::kTrafficFree) {
    day.baseline =
        run_no_sleep_baseline(scenario, topology, salted(keys.baseline), scenario.duration);
  } else if (baseline == Baseline::kSimulated) {
    day.baseline = run_scheme(scenario, topology, flows, find_scheme("no-sleep"),
                              salted(keys.baseline));
  }
  day.schemes.reserve(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    day.schemes.push_back(
        run_scheme(scenario, topology, flows, *schemes[s], salted(keys.scheme + s)));
  }
  return day;
}

PairedDaySummary summarize_paired_day(const RunMetrics& baseline,
                                      const RunMetrics& metrics, std::uint64_t flows,
                                      std::size_t bins, double peak_start,
                                      double peak_end) {
  PairedDaySummary out;
  out.day.baseline_user_energy = baseline.user_energy();
  out.day.baseline_isp_energy = baseline.isp_energy();
  out.day.user_energy = metrics.user_energy();
  out.day.isp_energy = metrics.isp_energy();
  const double base_total = out.day.baseline_user_energy + out.day.baseline_isp_energy;
  const double mine_total = out.day.user_energy + out.day.isp_energy;
  out.day.savings = base_total > 0.0 ? 1.0 - mine_total / base_total : 0.0;
  const double user_saved = out.day.baseline_user_energy - out.day.user_energy;
  const double isp_saved = out.day.baseline_isp_energy - out.day.isp_energy;
  const double total_saved = user_saved + isp_saved;
  out.day.isp_share = total_saved > 0.0 ? isp_saved / total_saved : 0.0;
  out.day.peak_online_gateways = metrics.online_gateways.mean(peak_start, peak_end);
  out.day.peak_online_cards = metrics.online_cards.mean(peak_start, peak_end);
  out.day.wake_events = metrics.gateway_wake_events;
  out.day.bh2_moves = metrics.bh2_moves;
  out.day.bh2_home_returns = metrics.bh2_home_returns;
  out.day.executed_events = metrics.executed_events;
  out.day.flows = flows;

  out.baseline_energy = bin_energy(baseline, bins);
  out.scheme_energy = bin_energy(metrics, bins);
  out.online_gateways =
      metrics.online_gateways.binned_means(0.0, metrics.duration, bins);
  out.online_cards = metrics.online_cards.binned_means(0.0, metrics.duration, bins);
  return out;
}

void fold_paired_days(const std::vector<PairedDaySummary>& days, RunReport& report) {
  const std::size_t bins = report.bins;
  std::vector<double> baseline_bins(bins, 0.0);
  std::vector<double> scheme_bins(bins, 0.0);
  std::vector<std::vector<double>> gateway_rows;
  double baseline_energy = 0.0;
  double scheme_energy = 0.0;
  double baseline_user = 0.0;
  double scheme_user = 0.0;
  double peak_gateways = 0.0;
  double wakes = 0.0;
  for (const PairedDaySummary& out : days) {
    report.days.push_back(out.day);
    for (std::size_t i = 0; i < bins; ++i) {
      baseline_bins[i] += out.baseline_energy.user[i] + out.baseline_energy.isp[i];
      scheme_bins[i] += out.scheme_energy.user[i] + out.scheme_energy.isp[i];
    }
    gateway_rows.push_back(out.online_gateways);
    baseline_energy += out.day.baseline_user_energy + out.day.baseline_isp_energy;
    scheme_energy += out.day.user_energy + out.day.isp_energy;
    baseline_user += out.day.baseline_user_energy;
    scheme_user += out.day.user_energy;
    peak_gateways += out.day.peak_online_gateways;
    wakes += static_cast<double>(out.day.wake_events);
    report.executed_events += out.day.executed_events;
  }

  report.day_savings = baseline_energy > 0.0 ? 1.0 - scheme_energy / baseline_energy : 0.0;
  const double user_saved = baseline_user - scheme_user;
  const double total_saved = baseline_energy - scheme_energy;
  report.day_isp_share = total_saved > 0.0 ? (total_saved - user_saved) / total_saved : 0.0;
  const double runs_d = static_cast<double>(report.runs);
  report.peak_online_gateways = peak_gateways / runs_d;
  report.mean_wake_events = wakes / runs_d;

  report.savings_series.resize(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    report.savings_series[i] =
        baseline_bins[i] > 0.0 ? 1.0 - scheme_bins[i] / baseline_bins[i] : 0.0;
  }
  report.online_gateways_series = stats::elementwise_mean(gateway_rows);
}

}  // namespace insomnia::core
