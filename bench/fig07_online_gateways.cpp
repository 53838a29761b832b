// Regenerates Fig. 7: number of online gateways over the day for SoI, BH2
// (with and without backup) and Optimal — the aggregation picture behind
// the Fig. 6 savings.
#include <iostream>

#include "bench_common.h"
#include "core/engine.h"

int main(int argc, char** argv) {
  using namespace insomnia;
  using namespace insomnia::core;
  bench::banner("Fig. 7", "number of online gateways over the day");

  const std::vector<RunReport> reports =
      bench::run_figure(argc, argv, {"soi", "bh2-kswitch", "bh2-nobackup-kswitch", "optimal"});

  const RunReport& soi = find_report(reports, "soi");
  const RunReport& bh2 = find_report(reports, "bh2-kswitch");
  const RunReport& bh2nb = find_report(reports, "bh2-nobackup-kswitch");
  const RunReport& optimal = find_report(reports, "optimal");
  for (const RunReport& r : reports) {
    bench::report().add_series(r.scheme + "_online_gateways", r.online_gateways_series);
  }
  // Mean of a per-day counter across runs.
  const auto per_run = [](const RunReport& r, long EngineDay::*counter) {
    double total = 0.0;
    for (const EngineDay& day : r.days) total += static_cast<double>(day.*counter);
    return total / static_cast<double>(r.runs);
  };

  bench::print_bin_table({"hour", "SoI", "BH2", "BH2 w/o backup", "Optimal"},
                         {&soi.online_gateways_series, &bh2.online_gateways_series,
                          &bh2nb.online_gateways_series, &optimal.online_gateways_series});

  std::cout << "\n";
  bench::compare("off-peak online gateways (all schemes)", "3-4 of 40",
                 bench::num(optimal.online_gateways_series[3], 1) + " (Optimal, 3h)");
  bench::compare("SoI at peak", "up to ~38 of 40 (95% at 15h)",
                 bench::num(soi.peak_online_gateways, 1) + " (11-19h mean)");
  bench::compare("BH2 tracks Optimal at peak", "close",
                 bench::num(bh2.peak_online_gateways, 1) + " vs " +
                     bench::num(optimal.peak_online_gateways, 1));
  bench::compare("backup does not hurt aggregation", "similar counts",
                 bench::num(bh2.peak_online_gateways, 1) + " (backup) vs " +
                     bench::num(bh2nb.peak_online_gateways, 1) + " (none)");
  bench::compare("BH2 assignment changes per run", "low (oscillation-free)",
                 bench::num(per_run(bh2, &EngineDay::bh2_moves), 0) + " moves, " +
                     bench::num(per_run(bh2, &EngineDay::bh2_home_returns), 0) +
                     " home returns");
  bench::report_scheme_override(reports);
  return bench::finish();
}
