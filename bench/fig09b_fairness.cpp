// Regenerates Fig. 9b: CDF of the per-gateway online-time variation of BH2
// (with and without backup) relative to plain SoI — the fairness picture:
// who sleeps more, who carries the guests.
#include <iostream>

#include "bench_common.h"
#include "core/engine.h"
#include "stats/cdf.h"

int main(int argc, char** argv) {
  using namespace insomnia;
  using namespace insomnia::core;
  bench::banner("Fig. 9b", "CDF of gateway online-time variation vs SoI");

  // SoI must be listed before the BH2 schemes (it is the reference).
  const std::vector<RunReport> reports =
      bench::run_figure(argc, argv, {"soi", "bh2-kswitch", "bh2-nobackup-kswitch"});

  const auto& bh2 = find_report(reports, "bh2-kswitch").online_time_variation;
  const auto& bh2nb = find_report(reports, "bh2-nobackup-kswitch").online_time_variation;

  const stats::EmpiricalCdf cdf_bh2(bh2);
  const stats::EmpiricalCdf cdf_nb(bh2nb);

  util::TextTable table;
  table.set_header({"variation x", "BH2 CDF", "BH2 w/o backup CDF"});
  for (double x : {-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0}) {
    table.add_row({bench::pct(x, 0), bench::num(cdf_bh2.fraction_at_or_below(x), 3),
                   bench::num(cdf_nb.fraction_at_or_below(x), 3)});
  }
  table.print(std::cout);

  const double always_asleep = cdf_bh2.fraction_at_or_below(-0.999);
  const double increased = 1.0 - cdf_bh2.fraction_at_or_below(1e-9);
  const double nb_always_asleep = cdf_nb.fraction_at_or_below(-0.999);
  const double nb_increased = 1.0 - cdf_nb.fraction_at_or_below(1e-9);

  std::cout << "\n";
  bench::compare("gateways with -100% online time under BH2", "~25%",
                 bench::pct(always_asleep));
  bench::compare("gateways online longer under BH2", "~14%", bench::pct(increased));
  bench::compare("w/o backup is less fair", "more extremes",
                 bench::pct(nb_always_asleep) + " fully asleep, " + bench::pct(nb_increased) +
                     " increased");
  bench::report_scheme_override(reports);
  return bench::finish();
}
