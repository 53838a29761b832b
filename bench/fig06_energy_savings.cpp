// Regenerates Fig. 6: energy savings vs the no-sleep baseline over the day
// for Optimal, SoI, SoI + k-switch, and BH2 + k-switch.
#include <iostream>

#include "bench_common.h"
#include "core/engine.h"

int main(int argc, char** argv) {
  using namespace insomnia;
  using namespace insomnia::core;
  bench::banner("Fig. 6", "energy savings vs no-sleep over the day");

  const std::vector<RunReport> reports =
      bench::run_figure(argc, argv, {"soi", "soi-kswitch", "bh2-kswitch", "optimal"},
                        /*fct=*/false, "; set INSOMNIA_RUNS to change");

  const RunReport& optimal = find_report(reports, "optimal");
  const RunReport& soi = find_report(reports, "soi");
  const RunReport& soik = find_report(reports, "soi-kswitch");
  const RunReport& bh2k = find_report(reports, "bh2-kswitch");
  for (const RunReport& r : reports) {
    bench::report().add_series(r.scheme + "_savings", r.savings_series);
  }
  bench::print_bin_table({"hour", "Optimal %", "SoI %", "SoI+k-switch %", "BH2+k-switch %"},
                         {&optimal.savings_series, &soi.savings_series,
                          &soik.savings_series, &bh2k.savings_series},
                         100);

  // Peak-window (11-19 h) savings for the paper's headline observations.
  auto window_mean = [&](const RunReport& r, std::size_t lo, std::size_t hi) {
    double total = 0.0;
    for (std::size_t b = lo; b < hi; ++b) total += r.savings_series[b];
    return total / static_cast<double>(hi - lo);
  };
  std::cout << "\n";
  bench::compare("Optimal, all day", "consistently ~80%",
                 bench::pct(optimal.day_savings));
  bench::compare("SoI during peak hours", "drops below 20%",
                 bench::pct(window_mean(soi, 11, 19)));
  bench::compare("SoI+k-switch during peak", "also below 20%",
                 bench::pct(window_mean(soik, 11, 19)));
  bench::compare("BH2+k-switch during peak", "at least 50%",
                 bench::pct(window_mean(bh2k, 11, 19)));
  bench::compare("BH2+k-switch day average", "66%", bench::pct(bh2k.day_savings));
  bench::compare("off-peak (2-6 h) schemes", ">60%",
                 bench::pct(window_mean(soik, 2, 6)) + " (SoI+k), " +
                     bench::pct(window_mean(bh2k, 2, 6)) + " (BH2+k)");
  bench::report_scheme_override(reports);
  return bench::finish();
}
