// Ablation: the §5.1 sensitivity analysis. Sweeps BH2's low/high load
// thresholds and decision period; reports savings, aggregation level, and
// the oscillation counters the paper says it minimised ("we paid special
// attention to oscillations").
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
  bench::banner("Ablation 2", "BH2 threshold and cadence sensitivity (§5.1)");

  const ScenarioConfig base_scenario = bench::scenario_from_args(argc, argv);
  const int runs = bench::runs_from_env(2);
  const SchemeSpec& scheme = bench::scheme_or("bh2-kswitch");
  exec::SweepRunner runner;
  std::cout << "(" << runs << " paired runs per point, scheme " << scheme.display << ")\n";

  sim::Random topo_rng(7);
  const auto topology = topo::make_overlap_topology(base_scenario.client_count,
                                                    base_scenario.degrees, topo_rng);

  auto evaluate = [&](const ScenarioConfig& scenario) {
    struct RunRow {
      double savings;
      double peak_gw;
      double moves;
      double wakes;
    };
    const auto rows = runner.run(static_cast<std::size_t>(runs), [&](std::size_t run) {
      sim::Random trace_rng(100 + run);
      const auto flows =
          trace::SyntheticCrawdadGenerator(scenario.traffic).generate(trace_rng);
      const RunMetrics nosleep = run_scheme(scenario, topology, flows, "no-sleep", 1);
      const RunMetrics m = run_scheme(scenario, topology, flows, scheme, 900 + run);
      return RunRow{savings_fraction(m, nosleep, 0.0, m.duration),
                    m.online_gateways.mean(11 * 3600.0, 19 * 3600.0),
                    static_cast<double>(m.bh2_moves),
                    static_cast<double>(m.gateway_wake_events)};
    });
    return std::vector<std::string>{
        bench::num(bench::mean_over_runs(rows, [](const RunRow& r) { return r.savings; }) * 100, 1),
        bench::num(bench::mean_over_runs(rows, [](const RunRow& r) { return r.peak_gw; }), 1),
        bench::num(bench::mean_over_runs(rows, [](const RunRow& r) { return r.moves; }), 0),
        bench::num(bench::mean_over_runs(rows, [](const RunRow& r) { return r.wakes; }), 0)};
  };

  std::cout << "\nThreshold sweep (decision period fixed at 150 s):\n";
  util::TextTable thresholds;
  thresholds.set_header({"low / high", "savings %", "peak online gw", "moves", "wakes"});
  struct Pair {
    double low;
    double high;
  };
  for (const Pair p : {Pair{0.05, 0.30}, Pair{0.10, 0.50}, Pair{0.20, 0.70}}) {
    ScenarioConfig scenario = base_scenario;
    scenario.bh2.low_threshold = p.low;
    scenario.bh2.high_threshold = p.high;
    auto row = evaluate(scenario);
    row.insert(row.begin(),
               bench::pct(p.low, 0) + " / " + bench::pct(p.high, 0) +
                   (p.low == 0.10 ? " (paper)" : ""));
    thresholds.add_row(std::move(row));
  }
  thresholds.print(std::cout);

  std::cout << "\nDecision-period sweep (thresholds fixed at 10 % / 50 %):\n";
  util::TextTable cadence;
  cadence.set_header({"period", "savings %", "peak online gw", "moves", "wakes"});
  for (double period : {60.0, 150.0, 300.0}) {
    ScenarioConfig scenario = base_scenario;
    scenario.bh2.decision_period = period;
    auto row = evaluate(scenario);
    row.insert(row.begin(), bench::num(period, 0) + " s" + (period == 150.0 ? " (paper)" : ""));
    cadence.add_row(std::move(row));
  }
  cadence.print(std::cout);

  std::cout << "\n";
  bench::compare("claim (§5.1)", "10%/50% and 150 s balance convergence vs stability",
                 "paper rows should be at or near the savings/oscillation sweet spot");
  return bench::finish();
}
