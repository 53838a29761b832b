// Regenerates the §5.2.3 in-text table: average number of online line cards
// during peak hours for every scheme/fabric combination —
//   Optimal: 1, BH2+full: 2, BH2+k: 2.88, SoI+full: 3, SoI+k: 3.74, SoI: 3.99.
#include <iostream>

#include "bench_common.h"
#include "core/engine.h"

int main(int argc, char** argv) {
  using namespace insomnia;
  using namespace insomnia::core;
  bench::banner("Table (§5.2.3)", "average online line cards during peak hours");

  const std::vector<RunReport> reports = bench::run_figure(
      argc, argv,
      {"soi", "soi-kswitch", "soi-fullswitch", "bh2-kswitch", "bh2-fullswitch", "optimal"});

  const std::vector<std::pair<std::string, double>> paper{
      {"optimal", 1.0},        {"bh2-fullswitch", 2.0}, {"bh2-kswitch", 2.88},
      {"soi-fullswitch", 3.0}, {"soi-kswitch", 3.74},   {"soi", 3.99}};

  util::TextTable table;
  table.set_header({"scheme", "paper", "measured (11-19h mean)"});
  for (const auto& [name, expected] : paper) {
    const RunReport& r = find_report(reports, name);
    table.add_row({r.scheme_display, bench::num(expected, 2),
                   bench::num(r.peak_online_cards, 2)});
    bench::report().set_field(name + "_peak_online_cards", r.peak_online_cards);
  }
  table.print(std::cout);

  std::cout << "\n";
  bench::compare("ordering", "Optimal < BH2+full < BH2+k < SoI+full < SoI+k < SoI",
                 "see table");
  bench::compare("small switches track full switching", "4-switch close to full",
                 "compare BH2 rows");
  bench::report_scheme_override(reports);
  return bench::finish();
}
