// Ablation: how big do the HDF switches need to be? Runs BH2 over the §5.1
// scenario with no switching, 2-/4-/8-switches(*) and a full switch, and
// reports ISP-side results. This is the experimental companion to the
// analytic Fig. 5 model — §4.2 claims "even tiny switches suffice".
//
// (*) with 4 line cards an 8-switch cannot be wired (k must divide the card
// count), so the 8-switch point uses an 8-card x 6-port DSLAM of the same
// 48 ports to keep totals comparable.
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
  bench::banner("Ablation 1", "HDF switch size vs ISP-side savings (BH2 user side)");

  const ScenarioConfig scenario = bench::scenario_from_args(argc, argv);
  const int runs = bench::runs_from_env(3);
  const SchemeSpec& scheme = bench::scheme_or("bh2-kswitch");
  exec::SweepRunner runner;
  std::cout << "(" << runs << " paired runs, user side: " << scheme.display << ")\n\n";

  struct Config {
    std::string label;
    dslam::SwitchMode mode;
    int switch_size;
    int cards;
    int ports;
  };
  const std::vector<Config> configs{
      {"fixed wiring (no switch)", dslam::SwitchMode::kFixed, 4, 4, 12},
      {"2-switches", dslam::SwitchMode::kKSwitch, 2, 4, 12},
      {"4-switches (paper)", dslam::SwitchMode::kKSwitch, 4, 4, 12},
      {"8-switches (8x6 DSLAM)", dslam::SwitchMode::kKSwitch, 8, 8, 6},
      {"full switch", dslam::SwitchMode::kFullSwitch, 4, 4, 12},
  };

  util::TextTable table;
  table.set_header({"fabric", "total savings %", "ISP share %", "peak online cards"});
  // One fixed topology for every fabric and run (only the DSLAM varies).
  sim::Random topo_rng(7);
  const auto topology =
      topo::make_overlap_topology(scenario.client_count, scenario.degrees, topo_rng);

  for (const auto& config : configs) {
    ScenarioConfig shaped = scenario;
    shaped.dslam.line_cards = config.cards;
    shaped.dslam.ports_per_card = config.ports;
    shaped.dslam.switch_size = config.switch_size;  // read in kKSwitch mode only
    SchemeSpec fabric = scheme;
    fabric.switch_mode = config.mode;

    struct RunRow {
      double savings;
      double isp_share;
      double peak_cards;
    };
    const auto rows = runner.run(static_cast<std::size_t>(runs), [&](std::size_t run) {
      sim::Random trace_rng(100 + run);
      const auto flows =
          trace::SyntheticCrawdadGenerator(shaped.traffic).generate(trace_rng);
      const RunMetrics base = run_scheme(shaped, topology, flows, "no-sleep", 1);
      const RunMetrics m = run_scheme(shaped, topology, flows, fabric, 500 + run);
      return RunRow{savings_fraction(m, base, 0.0, m.duration),
                    isp_share_of_savings(m, base, 0.0, m.duration).value_or(0.0),
                    m.online_cards.mean(11 * 3600.0, 19 * 3600.0)};
    });
    const double savings = bench::mean_over_runs(rows, [](const RunRow& r) { return r.savings; });
    const double isp_share =
        bench::mean_over_runs(rows, [](const RunRow& r) { return r.isp_share; });
    const double peak_cards =
        bench::mean_over_runs(rows, [](const RunRow& r) { return r.peak_cards; });
    table.add_row({config.label, bench::num(savings * 100, 1), bench::num(isp_share * 100, 1),
                   bench::num(peak_cards, 2)});
  }
  table.print(std::cout);

  std::cout << "\n";
  bench::compare("claim (§4.2)", "k=4 already close to full switching",
                 "compare the 4-switch and full-switch rows");
  return bench::finish();
}
