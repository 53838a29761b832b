// Regenerates Fig. 9a: CDF of the per-flow completion-time increase vs the
// no-sleep baseline, for SoI and BH2 with/without backup. QoS claim under
// test: few flows are affected at all, BH2 far fewer than SoI.
#include <iostream>

#include "bench_common.h"
#include "core/engine.h"
#include "stats/cdf.h"

int main(int argc, char** argv) {
  using namespace insomnia;
  using namespace insomnia::core;
  bench::banner("Fig. 9a", "CDF of flow completion-time increase vs no-sleep");

  const std::vector<RunReport> reports = bench::run_figure(
      argc, argv, {"soi", "bh2-kswitch", "bh2-nobackup-kswitch"}, /*fct=*/true);
  const core::SchemeSpec* extra = bench::scheme_override();

  std::vector<std::pair<std::string, std::string>> rows{
      {"SoI", "soi"},
      {"BH2", "bh2-kswitch"},
      {"BH2 w/o backup", "bh2-nobackup-kswitch"}};
  // no-sleep is the FCT baseline itself — it has no increase samples.
  if (extra != nullptr && extra->name != "no-sleep" && extra->name != "soi" &&
      extra->name != "bh2-kswitch" && extra->name != "bh2-nobackup-kswitch") {
    rows.push_back({extra->display, extra->name});
  }

  util::TextTable table;
  table.set_header({"scheme", "flows affected (> +1%)", "flows slowed > 2x", "p99 increase",
                    "p99.9 increase", "max increase"});
  for (const auto& [label, name] : rows) {
    const auto& fct = find_report(reports, name).fct_increase;
    const stats::EmpiricalCdf cdf(fct);
    const double affected = 1.0 - cdf.fraction_at_or_below(0.01);
    const double doubled = 1.0 - cdf.fraction_at_or_below(1.0);
    table.add_row({label, bench::pct(affected, 2), bench::pct(doubled, 2),
                   bench::pct(cdf.value_at(0.99)), bench::pct(cdf.value_at(0.999)),
                   bench::pct(cdf.sorted_sample().empty() ? 0.0 : cdf.sorted_sample().back())});
  }
  table.print(std::cout);
  std::cout << "\nNote: BH2's >1% slowdowns are mild hub-sharing effects; SoI's are\n"
               "60 s wake-up stalls. The stall-scale comparison is in the CDF tail.\n";

  std::cout << "\nCDF points (fraction of flows with increase <= x):\n";
  util::TextTable cdf_table;
  std::vector<std::string> cdf_header{"increase x"};
  for (const auto& [label, name] : rows) cdf_header.push_back(label);
  cdf_table.set_header(std::move(cdf_header));
  for (double x : {0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 6.0}) {
    std::vector<std::string> row{bench::pct(x, 0)};
    for (const auto& [label, name] : rows) {
      const stats::EmpiricalCdf cdf(find_report(reports, name).fct_increase);
      row.push_back(bench::num(cdf.fraction_at_or_below(x), 4));
    }
    cdf_table.add_row(std::move(row));
  }
  cdf_table.print(std::cout);

  std::cout << "\n";
  bench::compare("SoI affected flows", "~8%, up to 7x stretch", "see table");
  bench::compare("BH2 affected flows", "~2%, less heavily", "see table");
  bench::compare("backup helps slightly", "yes", "compare BH2 rows");
  bench::report_scheme_override(reports);
  return bench::finish();
}
