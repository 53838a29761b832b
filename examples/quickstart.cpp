// Quickstart: build a small neighbourhood, replay one synthetic day under
// Sleep-on-Idle and under BH2 + k-switching, and compare energy and QoS.
//
//   $ ./build/example_quickstart [clients] [gateways]
//
// This walks through the library's core workflow:
//   1. describe the scenario        (core::ScenarioConfig)
//   2. generate topology + traffic  (topo::, trace::)
//   3. run registered schemes       (core::run_scheme + core/scheme_registry.h)
//   4. read the metrics             (core::RunMetrics, core::savings_fraction)
#include <cstdlib>
#include <iostream>

#include "core/metrics.h"
#include "core/scheme_registry.h"
#include "stats/cdf.h"
#include "topology/access_topology.h"
#include "trace/synthetic_crawdad.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace insomnia;
  using namespace insomnia::core;

  // 1. Scenario: paper defaults scaled down so the example runs in seconds.
  ScenarioConfig scenario;
  scenario.client_count = argc > 1 ? std::atoi(argv[1]) : 68;
  scenario.gateway_count = argc > 2 ? std::atoi(argv[2]) : 10;
  scenario.degrees.node_count = scenario.gateway_count;
  scenario.traffic.client_count = scenario.client_count;
  scenario.dslam.line_cards = 4;
  scenario.dslam.ports_per_card = 3;

  std::cout << "Scenario: " << scenario.client_count << " clients, "
            << scenario.gateway_count << " gateways, 6 Mbps ADSL, one day\n\n";

  // 2. One fixed overlap topology and one day of traffic, shared by both
  //    schemes (paired comparison).
  sim::Random rng(2026);
  const topo::AccessTopology topology =
      topo::make_overlap_topology(scenario.client_count, scenario.degrees, rng);
  const trace::FlowTrace flows =
      trace::SyntheticCrawdadGenerator(scenario.traffic).generate(rng);
  std::cout << "Generated " << flows.size() << " flows; mean gateways in range "
            << util::format_fixed(topology.mean_gateways_per_client(), 1) << "\n\n";

  // 3. Run the baseline and the two schemes, selected by registry name.
  const RunMetrics baseline = run_scheme(scenario, topology, flows, "no-sleep", 1);
  const RunMetrics soi = run_scheme(scenario, topology, flows, "soi", 1);
  const RunMetrics bh2 = run_scheme(scenario, topology, flows, "bh2-kswitch", 1);

  // 4. Report.
  auto report = [&](const char* name, const RunMetrics& m) {
    const auto fct = completion_time_increase(m, baseline);
    const stats::EmpiricalCdf cdf(fct);
    std::cout << name << "\n"
              << "  energy savings vs no-sleep : "
              << util::format_percent(savings_fraction(m, baseline, 0.0, m.duration), 1) << "\n"
              << "  gateway wake-ups           : " << m.gateway_wake_events << "\n"
              << "  flows slowed by >1%        : "
              << util::format_percent(
                     fct.empty() ? 0.0 : 1.0 - cdf.fraction_at_or_below(0.01), 2)
              << "\n\n";
  };
  report("Sleep-on-Idle", soi);
  report("BH2 + k-switch", bh2);

  std::cout << "BH2 aggregates users onto few gateways: it saves far more energy\n"
               "and pays fewer 60 s wake-up stalls than plain SoI, at the price of\n"
               "mild slowdowns from sharing the aggregation gateways' backhaul.\n";
  return 0;
}
