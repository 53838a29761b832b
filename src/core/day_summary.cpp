#include "core/day_summary.h"

#include "sim/random.h"
#include "stats/timeseries.h"
#include "topology/access_topology.h"
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

topo::AccessTopology run_topology(const ScenarioConfig& scenario, std::uint64_t seed) {
  sim::Random rng(sim::Random::substream_seed(seed, 0, kRunDayKeys.topology));
  return topo::make_overlap_topology(scenario.client_count, scenario.degrees, rng);
}

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
  } else {
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
  EnergyBins base{std::vector<double>(bins), std::vector<double>(bins)};
  EnergyBins mine{std::vector<double>(bins), std::vector<double>(bins)};
  std::vector<std::vector<double>> gateway_rows;
  std::vector<std::vector<double>> card_rows;
  double base_user = 0.0;
  double base_isp = 0.0;
  double user = 0.0;
  double isp = 0.0;
  double peak_gateways = 0.0;
  double peak_cards = 0.0;
  double wakes = 0.0;
  for (const PairedDaySummary& out : days) {
    report.days.push_back(out.day);
    for (std::size_t i = 0; i < bins; ++i) {
      base.user[i] += out.baseline_energy.user[i];
      base.isp[i] += out.baseline_energy.isp[i];
      mine.user[i] += out.scheme_energy.user[i];
      mine.isp[i] += out.scheme_energy.isp[i];
    }
    gateway_rows.push_back(out.online_gateways);
    card_rows.push_back(out.online_cards);
    base_user += out.day.baseline_user_energy;
    base_isp += out.day.baseline_isp_energy;
    user += out.day.user_energy;
    isp += out.day.isp_energy;
    peak_gateways += out.day.peak_online_gateways;
    peak_cards += out.day.peak_online_cards;
    wakes += static_cast<double>(out.day.wake_events);
    report.executed_events += out.day.executed_events;
    report.fct_increase.insert(report.fct_increase.end(), out.fct_increase.begin(),
                               out.fct_increase.end());
    report.online_time_variation.insert(report.online_time_variation.end(),
                                        out.online_time_variation.begin(),
                                        out.online_time_variation.end());
  }

  const double base_total = base_user + base_isp;
  report.day_savings = base_total > 0.0 ? 1.0 - (user + isp) / base_total : 0.0;
  const double user_saved = base_user - user;
  const double isp_saved = base_isp - isp;
  report.day_isp_share =
      (user_saved + isp_saved) > 0.0 ? isp_saved / (user_saved + isp_saved) : 0.0;
  const double runs_d = static_cast<double>(report.runs);
  report.peak_online_gateways = peak_gateways / runs_d;
  report.peak_online_cards = peak_cards / runs_d;
  report.mean_wake_events = wakes / runs_d;

  report.savings_series.resize(bins);
  report.isp_share_series.resize(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    const double base_bin = base.user[i] + base.isp[i];
    const double mine_bin = mine.user[i] + mine.isp[i];
    report.savings_series[i] = base_bin > 0.0 ? 1.0 - mine_bin / base_bin : 0.0;
    const double bin_user_saved = base.user[i] - mine.user[i];
    const double bin_isp_saved = base.isp[i] - mine.isp[i];
    const double bin_saved = bin_user_saved + bin_isp_saved;
    report.isp_share_series[i] = bin_saved > base_bin * 1e-9 ? bin_isp_saved / bin_saved : 0.0;
  }
  report.online_gateways_series = stats::elementwise_mean(gateway_rows);
  report.online_cards_series = stats::elementwise_mean(card_rows);
}

}  // namespace insomnia::core
