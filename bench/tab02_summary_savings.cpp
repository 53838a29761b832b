// Regenerates the paper's headline summary (§1, §5.4): the 80 % savings
// margin, BH2+k-switch's 66 % average savings split 2/3 user : 1/3 ISP, and
// the world-wide extrapolation of ~33 TWh/year (~3 nuclear plants).
#include <iostream>

#include "bench_common.h"
#include "core/engine.h"
#include "core/extrapolation.h"

int main(int argc, char** argv) {
  using namespace insomnia;
  using namespace insomnia::core;
  bench::banner("Summary (§5.4)", "headline savings and world-wide extrapolation");

  const std::vector<RunReport> reports = bench::run_figure(argc, argv, {"bh2-kswitch", "optimal"});

  const RunReport& bh2 = find_report(reports, "bh2-kswitch");
  const RunReport& optimal = find_report(reports, "optimal");

  bench::compare("savings margin (Optimal, day avg)", "~80%", bench::pct(optimal.day_savings));
  bench::compare("BH2 + k-switch (day avg)", "66%", bench::pct(bh2.day_savings));
  bench::compare("share of savings at the user side", "~2/3",
                 bench::pct(1.0 - bh2.day_isp_share));
  bench::compare("share of savings at the ISP side", "~1/3", bench::pct(bh2.day_isp_share));
  bench::compare("gap to optimal", "within 7-35%",
                 bench::pct(1.0 - bh2.day_savings / optimal.day_savings));

  WorldExtrapolationConfig world;
  world.savings_fraction = bh2.day_savings;
  std::cout << "\nWorld-wide extrapolation (" << bench::num(world.dsl_subscribers / 1e6, 0)
            << "M DSL subscribers):\n";
  bench::compare("annual savings", "~33 TWh", bench::num(annual_savings_twh(world), 1) + " TWh");
  bench::compare("equivalent nuclear plants", "~3",
                 bench::num(equivalent_nuclear_plants(world), 1));
  bench::report_scheme_override(reports);
  return bench::finish();
}
