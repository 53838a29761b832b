// Regenerates Fig. 8: the share of each scheme's total savings contributed
// by the ISP side (DSLAM modems + line cards), over the day.
#include <iostream>

#include "bench_common.h"
#include "core/engine.h"

int main(int argc, char** argv) {
  using namespace insomnia;
  using namespace insomnia::core;
  bench::banner("Fig. 8", "ISP-side contribution to the total energy savings");

  const std::vector<RunReport> reports =
      bench::run_figure(argc, argv, {"soi", "soi-kswitch", "bh2-kswitch", "optimal"});

  const RunReport& soi = find_report(reports, "soi");
  const RunReport& soik = find_report(reports, "soi-kswitch");
  const RunReport& bh2k = find_report(reports, "bh2-kswitch");
  const RunReport& optimal = find_report(reports, "optimal");
  for (const RunReport& r : reports) {
    bench::report().add_series(r.scheme + "_isp_share", r.isp_share_series);
  }

  bench::print_bin_table({"hour", "Optimal %", "SoI+k-switch %", "BH2+k-switch %", "SoI %"},
                         {&optimal.isp_share_series, &soik.isp_share_series,
                          &bh2k.isp_share_series, &soi.isp_share_series},
                         100);

  std::cout << "\n";
  bench::compare("Optimal day-average ISP share", "~40%", bench::pct(optimal.day_isp_share));
  bench::compare("BH2+k-switch day-average ISP share", "~30%", bench::pct(bh2k.day_isp_share));
  bench::compare("SoI saves little for the ISP at peak", "near zero",
                 bench::pct(soi.isp_share_series[15]) + " at 15h");
  bench::report_scheme_override(reports);
  return bench::finish();
}
