#include "core/experiments.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/day_summary.h"
#include "core/metrics.h"
#include "exec/sweep_runner.h"
#include "sim/random.h"
#include "stats/timeseries.h"
#include "util/error.h"
#include "util/strings.h"

namespace insomnia::core {

namespace {

/// One scheme's share of a paired day: its summary plus the QoS samples.
struct SchemeDay {
  PairedDaySummary summary;
  std::vector<double> fct;       ///< Fig. 9a, vs the simulated baseline
  std::vector<double> fairness;  ///< Fig. 9b, vs the same day's SoI
};

/// Run-summed energy of one side of the comparison, per bin and per day,
/// added strictly in run order so the sums do not depend on which thread
/// computed each run.
struct EnergySums {
  EnergyBins bins;
  double user = 0.0;
  double isp = 0.0;

  explicit EnergySums(std::size_t n)
      : bins{std::vector<double>(n), std::vector<double>(n)} {}

  void add(const EnergyBins& day, double day_user, double day_isp) {
    for (std::size_t i = 0; i < bins.user.size(); ++i) {
      bins.user[i] += day.user[i];
      bins.isp[i] += day.isp[i];
    }
    user += day_user;
    isp += day_isp;
  }
};

constexpr std::size_t kNoSoi = static_cast<std::size_t>(-1);

}  // namespace

const SchemeOutcome& MainExperimentResult::outcome(const std::string& scheme) const {
  for (const SchemeOutcome& o : schemes) {
    if (o.scheme == scheme) return o;
  }
  throw util::InvalidArgument("scheme not part of this experiment: " + scheme);
}

MainExperimentResult run_main_experiment(const MainExperimentConfig& config) {
  util::require(config.runs >= 1, "experiment needs at least one run");
  util::require(config.bins >= 1, "experiment needs at least one bin");

  MainExperimentResult result;
  result.config = config;

  // Resolve every scheme name once, up front — an unknown name or a
  // misordered fairness pairing must fail before any simulation work starts
  // (and the error lists what would work). Fairness (Fig. 9b) pairs a scheme
  // with the same day's SoI, which must be listed before it.
  const bool wants_soi =
      std::find(config.schemes.begin(), config.schemes.end(), "soi") !=
      config.schemes.end();
  std::vector<const SchemeSpec*> schemes;
  std::vector<std::size_t> fairness_soi(config.schemes.size(), kNoSoi);
  std::size_t soi = kNoSoi;
  for (std::size_t s = 0; s < config.schemes.size(); ++s) {
    schemes.push_back(&find_scheme(config.schemes[s]));
    if (schemes[s]->name == "soi") {
      soi = s;
    } else if (schemes[s]->fairness_vs_soi && wants_soi) {
      util::require_state(soi != kNoSoi, "list \"soi\" before fairness-paired schemes");
      fairness_soi[s] = soi;
    }
  }

  // The paper evaluates every scheme on one fixed overlap topology.
  sim::Random topo_rng(
      sim::Random::substream_seed(config.seed, 0, kRunDayKeys.topology));
  const topo::AccessTopology topology = topo::make_overlap_topology(
      config.scenario.client_count, config.scenario.degrees, topo_rng);

  // Shard the paired days; each run is an independent task keyed by index.
  // The baseline is simulated, not traffic-free: Fig. 9a needs its FCTs.
  exec::SweepRunner runner(config.threads);
  const std::vector<std::vector<SchemeDay>> runs =
      runner.run(static_cast<std::size_t>(config.runs), [&](std::size_t run) {
        const PairedDay day = simulate_paired_day(config.scenario, topology, config.seed,
                                                  run, kRunDayKeys, schemes,
                                                  Baseline::kSimulated);
        std::vector<SchemeDay> out(schemes.size());
        for (std::size_t s = 0; s < schemes.size(); ++s) {
          const RunMetrics& metrics = day.schemes[s];
          out[s].summary = summarize_paired_day(day.baseline, metrics, day.flows,
                                                config.bins, config.peak_start,
                                                config.peak_end);
          if (schemes[s]->name != "no-sleep") {
            out[s].fct = completion_time_increase(metrics, day.baseline);
          }
          if (fairness_soi[s] != kNoSoi) {
            out[s].fairness = online_time_variation(metrics, day.schemes[fairness_soi[s]]);
          }
        }
        return out;
      });

  // Fold per-run outputs in run order, so results do not depend on the
  // thread count. User and ISP energy stay separate: Fig. 8 needs the split.
  EnergySums base(config.bins);
  for (const std::vector<SchemeDay>& run : runs) {
    if (run.empty()) break;
    const PairedDaySummary& o = run[0].summary;  // all schemes share the baseline
    base.add(o.baseline_energy, o.day.baseline_user_energy, o.day.baseline_isp_energy);
  }

  const double runs_d = static_cast<double>(config.runs);
  for (std::size_t s = 0; s < config.schemes.size(); ++s) {
    SchemeOutcome outcome;
    outcome.scheme = schemes[s]->name;
    outcome.display = schemes[s]->display;
    EnergySums mine(config.bins);
    std::vector<std::vector<double>> gateway_rows;
    std::vector<std::vector<double>> card_rows;
    for (const std::vector<SchemeDay>& run : runs) {
      const PairedDaySummary& o = run[s].summary;
      mine.add(o.scheme_energy, o.day.user_energy, o.day.isp_energy);
      gateway_rows.push_back(o.online_gateways);
      card_rows.push_back(o.online_cards);
      outcome.peak_online_gateways += o.day.peak_online_gateways;
      outcome.peak_online_cards += o.day.peak_online_cards;
      outcome.wake_events += static_cast<double>(o.day.wake_events);
      outcome.bh2_moves += static_cast<double>(o.day.bh2_moves);
      outcome.bh2_home_returns += static_cast<double>(o.day.bh2_home_returns);
      outcome.fct_increase.insert(outcome.fct_increase.end(), run[s].fct.begin(),
                                  run[s].fct.end());
      outcome.online_time_variation.insert(outcome.online_time_variation.end(),
                                           run[s].fairness.begin(), run[s].fairness.end());
    }

    outcome.savings.resize(config.bins);
    outcome.isp_share.resize(config.bins);
    for (std::size_t i = 0; i < config.bins; ++i) {
      const double base_bin = base.bins.user[i] + base.bins.isp[i];
      const double mine_bin = mine.bins.user[i] + mine.bins.isp[i];
      outcome.savings[i] = base_bin > 0.0 ? 1.0 - mine_bin / base_bin : 0.0;
      const double user_saved = base.bins.user[i] - mine.bins.user[i];
      const double isp_saved = base.bins.isp[i] - mine.bins.isp[i];
      const double total_saved = user_saved + isp_saved;
      outcome.isp_share[i] = total_saved > base_bin * 1e-9 ? isp_saved / total_saved : 0.0;
    }
    outcome.online_gateways = stats::elementwise_mean(gateway_rows);
    outcome.online_cards = stats::elementwise_mean(card_rows);

    outcome.day_savings = 1.0 - (mine.user + mine.isp) / (base.user + base.isp);
    const double user_saved = base.user - mine.user;
    const double isp_saved = base.isp - mine.isp;
    outcome.day_isp_share =
        (user_saved + isp_saved) > 0.0 ? isp_saved / (user_saved + isp_saved) : 0.0;

    outcome.peak_online_gateways /= runs_d;
    outcome.peak_online_cards /= runs_d;
    outcome.wake_events /= runs_d;
    outcome.bh2_moves /= runs_d;
    outcome.bh2_home_returns /= runs_d;
    result.schemes.push_back(std::move(outcome));
  }
  return result;
}

std::vector<DensityPoint> run_density_sweep(const ScenarioConfig& scenario,
                                            const std::vector<double>& mean_gateways,
                                            int runs, std::uint64_t seed, int threads,
                                            const std::string& scheme) {
  util::require(runs >= 1, "density sweep needs at least one run");
  const SchemeSpec& spec = find_scheme(scheme);
  const double peak_start = 11.0 * 3600.0;
  const double peak_end = 19.0 * 3600.0;

  // Every (density level, run) cell is independent: shard the flattened
  // grid, then reduce each level's runs in index order.
  const std::size_t runs_u = static_cast<std::size_t>(runs);
  exec::SweepRunner runner(threads);
  const std::vector<double> cells =
      runner.run(mean_gateways.size() * runs_u, [&](std::size_t cell) {
        const std::size_t level = cell / runs_u;
        const std::size_t run = cell % runs_u;
        const DayKeys keys = density_day_keys(level);
        sim::Random topo_rng(sim::Random::substream_seed(seed, run, keys.topology));
        const topo::AccessTopology topology = topo::make_binomial_topology(
            scenario.client_count, scenario.gateway_count, mean_gateways[level], topo_rng);
        const PairedDay day = simulate_paired_day(scenario, topology, seed, run, keys,
                                                  {&spec}, Baseline::kNone);
        return day.schemes[0].online_gateways.mean(peak_start, peak_end);
      });

  std::vector<DensityPoint> points;
  for (std::size_t level = 0; level < mean_gateways.size(); ++level) {
    double total = 0.0;
    for (std::size_t run = 0; run < runs_u; ++run) total += cells[level * runs_u + run];
    points.push_back({mean_gateways[level], total / static_cast<double>(runs)});
  }
  return points;
}

int runs_from_env(int fallback) {
  const char* env = std::getenv("INSOMNIA_RUNS");
  if (env == nullptr) return fallback;
  const auto parsed = util::parse_positive_int(env);
  util::require(parsed.has_value(),
                "INSOMNIA_RUNS must be a positive integer, got \"" + std::string(env) + "\"");
  return *parsed;
}

}  // namespace insomnia::core
