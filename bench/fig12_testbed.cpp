// Regenerates Fig. 12: the live-testbed experiment — 9 gateways on 3 Mbps
// ADSL lines, one BH2 terminal per gateway each replaying the traffic of
// one traced AP, clients limited to 3 gateways in range, 15:00-15:30.
// Compares the number of online APs under BH2 (no backup, as deployed)
// against SoI.
#include <iostream>

#include "bench_common.h"
#include "core/scheme_registry.h"
#include "core/testbed.h"

int main(int argc, char** argv) {
  using namespace insomnia;
  using namespace insomnia::core;
  // The testbed replays a fixed physical deployment (9 APs, 3 Mbps lines)
  // — there is no neighbourhood scenario to swap via --preset; --scheme
  // swaps the policy under test (deployed: BH2 without backup).
  bench::parse_common_args_or_exit(argc, argv);
  bench::banner("Fig. 12", "testbed replay: online APs, 15:00-15:30");
  if (std::getenv("INSOMNIA_PRESET") != nullptr) {
    // Visible, not fatal: batch loops over all drivers with a preset
    // exported should still include the testbed, but never misattribute
    // its output to that preset.
    std::cout << "note: INSOMNIA_PRESET ignored — the §5.3 testbed is a fixed deployment\n";
  }

  TestbedConfig config;
  config.runs = bench::runs_from_env(10);
  const SchemeSpec& scheme = bench::scheme_or(config.scheme);
  config.scheme = scheme.name;
  std::cout << "(" << config.runs << " randomised replays, " << scheme.display
            << " vs SoI)\n\n";
  const TestbedResult result = run_testbed_emulation(config);

  util::TextTable table;
  table.set_header({"minute", "SoI online APs", scheme.display + " online APs"});
  for (std::size_t minute = 0; minute < result.soi_online.size(); ++minute) {
    table.add_row({std::to_string(minute + 1), bench::num(result.soi_online[minute], 2),
                   bench::num(result.bh2_online[minute], 2)});
  }
  table.print(std::cout);

  std::cout << "\n";
  bench::compare("BH2 average sleeping APs (of 9)", "5.46 (60%)",
                 bench::num(result.bh2_mean_sleeping, 2));
  bench::compare("SoI average sleeping APs (of 9)", "3.72 (41%)",
                 bench::num(result.soi_mean_sleeping, 2));
  bench::compare("BH2 consistently below SoI", "yes",
                 bench::num(result.bh2_mean_online, 2) + " vs " +
                     bench::num(result.soi_mean_online, 2) + " online");
  bench::report().add_series("soi_online", result.soi_online);
  bench::report().add_series("scheme_online", result.bh2_online);
  return bench::finish();
}
