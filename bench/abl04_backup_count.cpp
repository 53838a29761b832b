// Ablation: number of backup gateways. §5.2.6 argues one backup buys
// fairness (and slightly better completion times) without hurting
// aggregation. Sweeps backup = 0..3.
#include <iostream>

#include "bench_common.h"
#include "core/metrics.h"
#include "core/scheme_registry.h"
#include "exec/sweep_runner.h"
#include "sim/random.h"
#include "stats/cdf.h"
#include "topology/access_topology.h"
#include "trace/synthetic_crawdad.h"

int main(int argc, char** argv) {
  using namespace insomnia;
  using namespace insomnia::core;
  bench::banner("Ablation 4", "BH2 backup count: savings, aggregation, fairness");

  const ScenarioConfig base_scenario = bench::scenario_from_args(argc, argv);
  const int runs = bench::runs_from_env(2);
  const SchemeSpec& scheme = bench::scheme_or("bh2-kswitch");
  exec::SweepRunner runner;
  std::cout << "(" << runs << " paired runs per point, scheme " << scheme.display << ")\n\n";

  sim::Random topo_rng(7);
  const auto topology = topo::make_overlap_topology(base_scenario.client_count,
                                                    base_scenario.degrees, topo_rng);

  util::TextTable table;
  table.set_header({"backups", "savings %", "peak online gw", "fully-asleep gw %",
                    "gw online longer %", "home returns"});
  for (int backup : {0, 1, 2, 3}) {
    ScenarioConfig scenario = base_scenario;
    scenario.bh2.backup = backup;

    struct RunRow {
      double savings;
      double peak_gw;
      double returns;
      std::vector<double> variation;
    };
    const auto rows = runner.run(static_cast<std::size_t>(runs), [&](std::size_t run) {
      sim::Random trace_rng(100 + run);
      const auto flows =
          trace::SyntheticCrawdadGenerator(scenario.traffic).generate(trace_rng);
      const RunMetrics nosleep = run_scheme(scenario, topology, flows, "no-sleep", 1);
      const RunMetrics soi = run_scheme(scenario, topology, flows, "soi", 50 + run);
      const RunMetrics bh2 = run_scheme(scenario, topology, flows, scheme, 60 + run);
      return RunRow{savings_fraction(bh2, nosleep, 0.0, bh2.duration),
                    bh2.online_gateways.mean(11 * 3600.0, 19 * 3600.0),
                    static_cast<double>(bh2.bh2_home_returns),
                    online_time_variation(bh2, soi)};
    });
    const double savings = bench::mean_over_runs(rows, [](const RunRow& r) { return r.savings; });
    const double peak_gw = bench::mean_over_runs(rows, [](const RunRow& r) { return r.peak_gw; });
    const double returns = bench::mean_over_runs(rows, [](const RunRow& r) { return r.returns; });
    std::vector<double> variation;
    for (const RunRow& row : rows) {
      variation.insert(variation.end(), row.variation.begin(), row.variation.end());
    }
    const stats::EmpiricalCdf cdf(variation);
    table.add_row({std::to_string(backup) + (backup == 1 ? " (paper)" : ""),
                   bench::num(savings * 100, 1), bench::num(peak_gw, 1),
                   bench::pct(cdf.fraction_at_or_below(-0.999)),
                   bench::pct(1.0 - cdf.fraction_at_or_below(1e-9)),
                   bench::num(returns, 0)});
  }
  table.print(std::cout);

  std::cout << "\n";
  bench::compare("claim (§5.2.6)", "one backup: fairer sleeping-time split, no savings penalty",
                 "compare rows 0 and 1");
  return bench::finish();
}
