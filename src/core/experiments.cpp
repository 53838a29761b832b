#include "core/experiments.h"

#include <cstdlib>
#include <string>

#include "core/day_summary.h"
#include "core/metrics.h"
#include "core/scheme_registry.h"
#include "exec/sweep_runner.h"
#include "sim/random.h"
#include "stats/timeseries.h"
#include "topology/access_topology.h"
#include "util/error.h"
#include "util/strings.h"

namespace insomnia::core {

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
                                                  {&spec}, Baseline::kTrafficFree);
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
