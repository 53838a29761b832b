// Ablation: wake-up time. The paper measured ~60 s average (ADSL resync can
// reach 3 minutes). Sweeps the wake-up penalty and reports savings plus the
// number of flows stalled by more than half the wake time — quantifying how
// BH2's backup associations insulate users from slow resynchronisation.
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/metrics.h"
#include "core/scheme_registry.h"
#include "exec/sweep_runner.h"
#include "sim/random.h"
#include "topology/access_topology.h"
#include "trace/synthetic_crawdad.h"

int main(int argc, char** argv) {
  using namespace insomnia;
  using namespace insomnia::core;
  bench::banner("Ablation 3", "wake-up time: savings and stalls, SoI vs BH2");

  const ScenarioConfig base_scenario = bench::scenario_from_args(argc, argv);
  const int runs = bench::runs_from_env(2);
  const SchemeSpec& scheme = bench::scheme_or("bh2-kswitch");
  exec::SweepRunner runner;
  std::cout << "(" << runs << " paired runs per point, vs " << scheme.display << ")\n\n";
  sim::Random topo_rng(7);
  const auto topology = topo::make_overlap_topology(base_scenario.client_count,
                                                    base_scenario.degrees, topo_rng);

  util::TextTable table;
  table.set_header({"wake time", "SoI savings %", "BH2 savings %", "SoI stalls", "BH2 stalls"});
  for (double wake : {10.0, 30.0, 60.0, 120.0, 180.0}) {
    ScenarioConfig scenario = base_scenario;
    scenario.wake_time = wake;

    struct RunRow {
      double soi_savings;
      double bh2_savings;
      double soi_stalls;
      double bh2_stalls;
    };
    const auto rows = runner.run(static_cast<std::size_t>(runs), [&](std::size_t run) {
      sim::Random trace_rng(100 + run);
      const auto flows =
          trace::SyntheticCrawdadGenerator(scenario.traffic).generate(trace_rng);
      const RunMetrics nosleep = run_scheme(scenario, topology, flows, "no-sleep", 1);
      const RunMetrics soi = run_scheme(scenario, topology, flows, "soi", 70 + run);
      const RunMetrics bh2 = run_scheme(scenario, topology, flows, scheme, 80 + run);
      auto stalled = [&](const RunMetrics& m) {
        long count = 0;
        for (std::size_t i = 0; i < m.completion_time.size(); ++i) {
          const double delta = m.completion_time[i] - nosleep.completion_time[i];
          if (!std::isnan(delta) && delta > wake / 2.0) ++count;
        }
        return static_cast<double>(count);
      };
      return RunRow{savings_fraction(soi, nosleep, 0.0, soi.duration),
                    savings_fraction(bh2, nosleep, 0.0, bh2.duration), stalled(soi),
                    stalled(bh2)};
    });
    const double soi_savings =
        bench::mean_over_runs(rows, [](const RunRow& r) { return r.soi_savings; });
    const double bh2_savings =
        bench::mean_over_runs(rows, [](const RunRow& r) { return r.bh2_savings; });
    const double soi_stalls =
        bench::mean_over_runs(rows, [](const RunRow& r) { return r.soi_stalls; });
    const double bh2_stalls =
        bench::mean_over_runs(rows, [](const RunRow& r) { return r.bh2_stalls; });
    table.add_row({bench::num(wake, 0) + " s" + (wake == 60.0 ? " (paper)" : ""),
                   bench::num(soi_savings * 100, 1), bench::num(bh2_savings * 100, 1),
                   bench::num(soi_stalls, 0), bench::num(bh2_stalls, 0)});
  }
  table.print(std::cout);

  std::cout << "\n";
  bench::compare("expectation", "SoI degrades with slower resync; BH2 largely insulated",
                 "see stall columns");
  return bench::finish();
}
