#include "core/experiments.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/metrics.h"
#include "exec/sweep_runner.h"
#include "sim/random.h"
#include "stats/timeseries.h"
#include "trace/synthetic_crawdad.h"
#include "util/error.h"
#include "util/strings.h"

namespace insomnia::core {

namespace {

/// Exact per-bin energy integrals of one run, user and ISP side.
struct BinnedEnergy {
  std::vector<double> user;
  std::vector<double> isp;
};

BinnedEnergy bin_energy(const RunMetrics& metrics, std::size_t bins) {
  BinnedEnergy out;
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

/// Run-summed per-bin energies; merged strictly in run-index order so the
/// floating-point accumulation matches the historical serial loop bit for
/// bit regardless of which thread computed each run.
struct EnergyBins {
  std::vector<double> user;
  std::vector<double> isp;

  void merge(const BinnedEnergy& run) {
    if (user.empty()) {
      user.assign(run.user.size(), 0.0);
      isp.assign(run.isp.size(), 0.0);
    }
    for (std::size_t i = 0; i < run.user.size(); ++i) {
      user[i] += run.user[i];
      isp[i] += run.isp[i];
    }
  }
};

/// Everything one scheme contributes from one paired day.
struct SchemeRunOutput {
  BinnedEnergy energy;
  std::vector<double> online_gateways;  ///< binned means
  std::vector<double> online_cards;
  double peak_gateways = 0.0;
  double peak_cards = 0.0;
  double user_energy = 0.0;
  double isp_energy = 0.0;
  double wakes = 0.0;
  double moves = 0.0;
  double returns = 0.0;
  std::vector<double> fct;
  std::vector<double> fairness;
};

/// One paired simulated day: baseline plus every requested scheme.
struct RunOutput {
  BinnedEnergy baseline;
  double baseline_user_energy = 0.0;
  double baseline_isp_energy = 0.0;
  std::vector<SchemeRunOutput> schemes;
};

/// Simulates paired day `run`. Pure function of (config, topology, run): all
/// randomness is derived from substream seeds keyed by the run index, so the
/// sweep can be sharded across threads in any order. `schemes` holds the
/// registry specs of config.schemes, resolved once by the caller.
RunOutput simulate_run(const MainExperimentConfig& config,
                       const topo::AccessTopology& topology,
                       const trace::SyntheticCrawdadGenerator& generator, int run,
                       const std::vector<const SchemeSpec*>& schemes,
                       const SchemeSpec& baseline_scheme, bool wants_soi) {
  RunOutput out;
  sim::Random trace_rng(sim::Random::substream_seed(config.seed, run, 1));
  const trace::FlowTrace flows = generator.generate(trace_rng);

  // Simulated, not run_no_sleep_baseline: Fig. 9a needs its completion times.
  const RunMetrics baseline =
      run_scheme(config.scenario, topology, flows, baseline_scheme,
                 sim::Random::substream_seed(config.seed, run, 2));
  out.baseline = bin_energy(baseline, config.bins);
  out.baseline_user_energy = baseline.user_energy();
  out.baseline_isp_energy = baseline.isp_energy();

  RunMetrics soi_metrics;
  bool have_soi = false;

  out.schemes.resize(config.schemes.size());
  for (std::size_t s = 0; s < config.schemes.size(); ++s) {
    const SchemeSpec& spec = *schemes[s];
    RunMetrics metrics =
        run_scheme(config.scenario, topology, flows, spec,
                   sim::Random::substream_seed(config.seed, run, 100 + s));

    SchemeRunOutput& o = out.schemes[s];
    o.energy = bin_energy(metrics, config.bins);
    o.online_gateways = metrics.online_gateways.binned_means(0.0, metrics.duration, config.bins);
    o.online_cards = metrics.online_cards.binned_means(0.0, metrics.duration, config.bins);
    o.peak_gateways = metrics.online_gateways.mean(config.peak_start, config.peak_end);
    o.peak_cards = metrics.online_cards.mean(config.peak_start, config.peak_end);
    o.user_energy = metrics.user_energy();
    o.isp_energy = metrics.isp_energy();
    o.wakes = static_cast<double>(metrics.gateway_wake_events);
    o.moves = static_cast<double>(metrics.bh2_moves);
    o.returns = static_cast<double>(metrics.bh2_home_returns);

    if (spec.name != "no-sleep") {
      o.fct = completion_time_increase(metrics, baseline);
    }
    if (spec.name == "soi") {
      soi_metrics = std::move(metrics);
      have_soi = true;
      continue;
    }
    // Fairness (Fig. 9b) needs the same-run SoI metrics; fairness-paired
    // schemes are listed after SoI by convention (enforced below).
    if (spec.fairness_vs_soi && wants_soi) {
      util::require_state(have_soi, "list \"soi\" before fairness-paired schemes");
      o.fairness = online_time_variation(metrics, soi_metrics);
    }
  }
  return out;
}

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

  // The paper evaluates every scheme on one fixed overlap topology.
  sim::Random topo_rng(sim::Random::substream_seed(config.seed, 0, 7));
  const topo::AccessTopology topology = topo::make_overlap_topology(
      config.scenario.client_count, config.scenario.degrees, topo_rng);

  // Resolve every scheme name once, up front — an unknown name must fail
  // before any simulation work starts (and the error lists what would work).
  std::vector<const SchemeSpec*> schemes;
  schemes.reserve(config.schemes.size());
  for (const std::string& name : config.schemes) schemes.push_back(&find_scheme(name));
  const SchemeSpec& baseline_scheme = find_scheme("no-sleep");

  const bool wants_soi =
      std::find(config.schemes.begin(), config.schemes.end(), "soi") !=
      config.schemes.end();

  const trace::SyntheticCrawdadGenerator generator(config.scenario.traffic);

  // Shard the paired days; each run is an independent task keyed by index.
  exec::SweepRunner runner(config.threads);
  const std::vector<RunOutput> runs =
      runner.run(static_cast<std::size_t>(config.runs), [&](std::size_t run) {
        return simulate_run(config, topology, generator, static_cast<int>(run), schemes,
                            baseline_scheme, wants_soi);
      });

  // Fold per-run outputs in run order — the exact addition sequence of the
  // old serial loop, so results do not depend on the thread count.
  struct Accumulator {
    EnergyBins energy;
    std::vector<std::vector<double>> online_gateways;
    std::vector<std::vector<double>> online_cards;
    double peak_gateways = 0.0;
    double peak_cards = 0.0;
    double day_user_energy = 0.0;
    double day_isp_energy = 0.0;
    double wakes = 0.0;
    double moves = 0.0;
    double returns = 0.0;
    std::vector<double> fct;
    std::vector<double> fairness;
  };
  std::vector<Accumulator> acc(config.schemes.size());
  EnergyBins baseline_energy;
  double baseline_user = 0.0;
  double baseline_isp = 0.0;

  for (const RunOutput& run : runs) {
    baseline_energy.merge(run.baseline);
    baseline_user += run.baseline_user_energy;
    baseline_isp += run.baseline_isp_energy;
    for (std::size_t s = 0; s < config.schemes.size(); ++s) {
      const SchemeRunOutput& o = run.schemes[s];
      Accumulator& a = acc[s];
      a.energy.merge(o.energy);
      a.online_gateways.push_back(o.online_gateways);
      a.online_cards.push_back(o.online_cards);
      a.peak_gateways += o.peak_gateways;
      a.peak_cards += o.peak_cards;
      a.day_user_energy += o.user_energy;
      a.day_isp_energy += o.isp_energy;
      a.wakes += o.wakes;
      a.moves += o.moves;
      a.returns += o.returns;
      a.fct.insert(a.fct.end(), o.fct.begin(), o.fct.end());
      a.fairness.insert(a.fairness.end(), o.fairness.begin(), o.fairness.end());
    }
  }

  const double runs_d = static_cast<double>(config.runs);
  for (std::size_t s = 0; s < config.schemes.size(); ++s) {
    Accumulator& a = acc[s];
    SchemeOutcome outcome;
    outcome.scheme = schemes[s]->name;
    outcome.display = schemes[s]->display;

    outcome.savings.resize(config.bins);
    outcome.isp_share.resize(config.bins);
    for (std::size_t i = 0; i < config.bins; ++i) {
      const double base = baseline_energy.user[i] + baseline_energy.isp[i];
      const double mine = a.energy.user[i] + a.energy.isp[i];
      outcome.savings[i] = base > 0.0 ? 1.0 - mine / base : 0.0;
      const double user_saved = baseline_energy.user[i] - a.energy.user[i];
      const double isp_saved = baseline_energy.isp[i] - a.energy.isp[i];
      const double total_saved = user_saved + isp_saved;
      outcome.isp_share[i] = total_saved > base * 1e-9 ? isp_saved / total_saved : 0.0;
    }
    outcome.online_gateways = stats::elementwise_mean(a.online_gateways);
    outcome.online_cards = stats::elementwise_mean(a.online_cards);

    const double base_day = baseline_user + baseline_isp;
    const double mine_day = a.day_user_energy + a.day_isp_energy;
    outcome.day_savings = 1.0 - mine_day / base_day;
    const double user_saved = baseline_user - a.day_user_energy;
    const double isp_saved = baseline_isp - a.day_isp_energy;
    outcome.day_isp_share =
        (user_saved + isp_saved) > 0.0 ? isp_saved / (user_saved + isp_saved) : 0.0;

    outcome.peak_online_gateways = a.peak_gateways / runs_d;
    outcome.peak_online_cards = a.peak_cards / runs_d;
    outcome.fct_increase = std::move(a.fct);
    outcome.online_time_variation = std::move(a.fairness);
    outcome.wake_events = a.wakes / runs_d;
    outcome.bh2_moves = a.moves / runs_d;
    outcome.bh2_home_returns = a.returns / runs_d;

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
  const trace::SyntheticCrawdadGenerator generator(scenario.traffic);
  const double peak_start = 11.0 * 3600.0;
  const double peak_end = 19.0 * 3600.0;

  // Every (density level, run) cell is independent: shard the flattened
  // grid, then reduce each level's runs in index order.
  const std::size_t runs_u = static_cast<std::size_t>(runs);
  exec::SweepRunner runner(threads);
  const std::vector<double> cells =
      runner.run(mean_gateways.size() * runs_u, [&](std::size_t cell) {
        const std::size_t level = cell / runs_u;
        const int run = static_cast<int>(cell % runs_u);
        sim::Random topo_rng(sim::Random::substream_seed(seed, run, 300 + level));
        const topo::AccessTopology topology = topo::make_binomial_topology(
            scenario.client_count, scenario.gateway_count, mean_gateways[level], topo_rng);
        sim::Random trace_rng(sim::Random::substream_seed(seed, run, 1));
        const trace::FlowTrace flows = generator.generate(trace_rng);
        const RunMetrics metrics =
            run_scheme(scenario, topology, flows, spec,
                       sim::Random::substream_seed(seed, run, 400 + level));
        return metrics.online_gateways.mean(peak_start, peak_end);
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
