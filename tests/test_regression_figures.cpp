// Golden regression layer: pinned-seed, low-run-count versions of the
// paper's figure experiments, and pinned Engine days on three presets,
// asserted against committed expected values.
// The multi-scheme Engine run and run_density_sweep feed Figs. 6-10 and
// Tabs. 1-2;
// any change to seed derivation, scheme wiring, accumulation order, or the
// simulators themselves shifts these numbers — this suite turns such a shift
// from a silently different curve into a red test.
//
// The goldens were produced by this tree's serial path (threads = 1) and are
// asserted to 4-ULP precision (EXPECT_DOUBLE_EQ): the parallel engine
// guarantees bit-identical aggregation, so nothing looser is needed. The
// numeric stream of std::mt19937_64 is standard-mandated, but the
// distribution algorithms are not, so the values only hold on libstdc++;
// other standard libraries skip the value assertions.
//
// Deliberately one test case per experiment: ctest runs every gtest case in
// its own process, so splitting the assertions across cases would re-run the
// pinned experiment once per case.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/experiments.h"

namespace insomnia::core {
namespace {

#if !defined(__GLIBCXX__)
#define INSOMNIA_SKIP_GOLDENS() \
  GTEST_SKIP() << "golden values assume libstdc++ distribution algorithms"
#else
#define INSOMNIA_SKIP_GOLDENS() (void)0
#endif

ScenarioConfig pinned_scenario() {
  ScenarioConfig scenario;
  scenario.client_count = 48;
  scenario.gateway_count = 8;
  scenario.degrees.node_count = 8;
  scenario.degrees.mean_degree = 4.0;
  scenario.traffic.client_count = 48;
  scenario.dslam.line_cards = 4;
  scenario.dslam.ports_per_card = 2;
  return scenario;
}

/// The figure drivers' call: several schemes over the same paired days, with
/// FCTs on (the goldens pin the FCT sample counts).
std::vector<RunReport> run_pinned_experiment() {
  RunSpec spec;
  spec.scenario = pinned_scenario();
  spec.runs = 2;
  spec.bins = 12;
  spec.seed = 2025;
  spec.fct = true;
  spec.threads = 1;
  return Engine().run(spec, {"soi", "bh2-kswitch", "optimal"});
}

/// Mean of a per-day counter across runs.
double per_run(const RunReport& report, long EngineDay::*counter) {
  double total = 0.0;
  for (const EngineDay& day : report.days) total += static_cast<double>(day.*counter);
  return total / static_cast<double>(report.runs);
}

void expect_series(const std::vector<double>& actual, const std::vector<double>& golden,
                   const char* what) {
  ASSERT_EQ(actual.size(), golden.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_DOUBLE_EQ(actual[i], golden[i]) << what << " bin " << i;
  }
}

TEST(RegressionMainExperiment, PinnedSeedRunMatchesGoldens) {
  const std::vector<RunReport> reports = run_pinned_experiment();
  const RunReport& soi = find_report(reports, "soi");
  const RunReport& bh2 = find_report(reports, "bh2-kswitch");
  const RunReport& optimal = find_report(reports, "optimal");

  // Structural fairness-sample counts (runs x gateways for BH2, none for
  // the SoI reference) hold on any conforming standard library.
  EXPECT_EQ(bh2.online_time_variation.size(), 16u);
  EXPECT_EQ(soi.online_time_variation.size(), 0u);

  // Everything below depends on implementation-defined distribution
  // algorithms (including the generated flow count) — golden values.
  INSOMNIA_SKIP_GOLDENS();

  EXPECT_EQ(soi.fct_increase.size(), 94424u);
  EXPECT_EQ(bh2.fct_increase.size(), 94424u);

  // Whole-day and peak-window summaries.
  EXPECT_DOUBLE_EQ(soi.day_savings, 0.45212488776368165);
  EXPECT_DOUBLE_EQ(soi.day_isp_share, 0.73141175372253331);
  EXPECT_DOUBLE_EQ(soi.peak_online_gateways, 6.2585129986842167);
  EXPECT_DOUBLE_EQ(soi.peak_online_cards, 3.7817465225220936);

  EXPECT_DOUBLE_EQ(bh2.day_savings, 0.7098740173060949);
  EXPECT_DOUBLE_EQ(bh2.day_isp_share, 0.75545712552485178);
  EXPECT_DOUBLE_EQ(bh2.peak_online_gateways, 2.2350111165774411);
  EXPECT_DOUBLE_EQ(bh2.peak_online_cards, 1.7161178940079376);

  EXPECT_DOUBLE_EQ(optimal.day_savings, 0.79923568715141191);
  EXPECT_DOUBLE_EQ(optimal.day_isp_share, 0.76288805302275997);
  EXPECT_DOUBLE_EQ(optimal.peak_online_gateways, 1.0567970400686089);
  EXPECT_DOUBLE_EQ(optimal.peak_online_cards, 1.0020225833410283);

  // Behaviour counters.
  EXPECT_DOUBLE_EQ(soi.mean_wake_events, 111.5);
  EXPECT_DOUBLE_EQ(per_run(soi, &EngineDay::bh2_moves), 0.0);
  EXPECT_DOUBLE_EQ(bh2.mean_wake_events, 106.5);
  EXPECT_DOUBLE_EQ(per_run(bh2, &EngineDay::bh2_moves), 3752.5);
  EXPECT_DOUBLE_EQ(per_run(bh2, &EngineDay::bh2_home_returns), 1056.5);

  // Day series (Figs. 6-8).
  expect_series(soi.savings_series,
                {0.86602088548036926, 0.89598068798216501, 0.89284938293116456,
                 0.8063239215821566, 0.42971473987263253, 0.14240802764320681,
                 0.098518335822596503, 0.071336782461625892, 0.059915901013525064,
                 0.081835445735161771, 0.30542373855370963, 0.77517080408586514},
                "SoI savings");
  expect_series(bh2.savings_series,
                {0.86602088548036926, 0.89598068798216501, 0.89317226322378862,
                 0.83718852196516302, 0.68711882052079032, 0.62469132443501274,
                 0.57767548276115366, 0.5488762722259497, 0.60957560958049051,
                 0.55520042270570946, 0.59883595632296016, 0.82415196046958605},
                "BH2 savings");
  expect_series(optimal.savings_series,
                {0.86374423463991057, 0.89612158033530087, 0.89342743271732528,
                 0.85260652844797225, 0.76251204195462807, 0.747519716748555,
                 0.74581117279441678, 0.74695121951219512, 0.74611973710818646,
                 0.7470238630693754, 0.74791637509071318, 0.84107434339836451},
                "Optimal savings");
  expect_series(bh2.online_gateways_series,
                {0.44611387645100142, 0.30479905580093858, 0.31804587346655444,
                 0.5821107769253816, 1.3103475048147462, 1.7813694903989017,
                 2.103385568881416, 2.5740169633412688, 2.1366031246969586,
                 2.6239240853207306, 1.8348899808870698, 0.67644578504405417},
                "BH2 online gateways");
  expect_series(optimal.isp_share_series,
                {0.77061328074824109, 0.77452323695967207, 0.77411817319460441,
                 0.76936836688516541, 0.75710277984083207, 0.75537326806782168,
                 0.75599226559643751, 0.75589743589743585, 0.75576307889311989,
                 0.75583041236944659, 0.75500801169980591, 0.76790271290550072},
                "Optimal ISP share");
}

TEST(RegressionDensitySweep, PointsMatchGoldens) {
  INSOMNIA_SKIP_GOLDENS();
  ScenarioConfig scenario = pinned_scenario();
  const auto points = run_density_sweep(scenario, {1.0, 3.0, 6.0}, 2, 424242, 1);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].mean_online_gateways, 6.4842992511470134);
  EXPECT_DOUBLE_EQ(points[1].mean_online_gateways, 4.0914766207051692);
  EXPECT_DOUBLE_EQ(points[2].mean_online_gateways, 2.3783960542963571);
}

// Pinned whole days through Engine::run (seed 5, two runs, 12 bins) on
// the presets whose days the 48-client goldens above do not reach: their
// load windows sit on saturation ties (a gateway at load 1.0 against
// `load - own_share >= 0.5`), so a window integral that differs in the last
// bit moves BH2 decisions, and with them every pinned count below.
RunReport run_pinned_day(const char* preset, const char* scheme) {
  RunSpec spec;
  spec.preset = preset;
  spec.scheme = scheme;
  spec.seed = 5;
  spec.runs = 2;
  spec.bins = 12;
  spec.threads = 1;
  return Engine().run(spec);
}

void expect_days(const RunReport& report, const std::vector<std::uint64_t>& events,
                 const std::vector<long>& moves, const std::vector<long>& wakes) {
  ASSERT_EQ(report.days.size(), events.size());
  for (std::size_t d = 0; d < events.size(); ++d) {
    EXPECT_EQ(report.days[d].executed_events, events[d]) << "day " << d;
    EXPECT_EQ(report.days[d].bh2_moves, moves[d]) << "day " << d;
    EXPECT_EQ(report.days[d].wake_events, wakes[d]) << "day " << d;
  }
}

TEST(RegressionPinnedDay, SparseRuralBh2Kswitch) {
  INSOMNIA_SKIP_GOLDENS();
  const RunReport report = run_pinned_day("sparse-rural", "bh2-kswitch");
  expect_days(report, {225411, 255027}, {4418, 4953}, {308, 358});
  EXPECT_DOUBLE_EQ(report.day_savings, 0.5446456037447338);
  expect_series(report.savings_series,
                {0.7500208417920033, 0.8417842360261543, 0.7160247340853654, 0.7676850342477782,
                 0.5508979417306323, 0.43614010586849494, 0.3891165270607502, 0.33235396281442087,
                 0.3237956405859188, 0.3812663745118666, 0.4459266511937079, 0.6007351950197154},
                "savings");
}

TEST(RegressionPinnedDay, DevelopingWorldBh2Kswitch) {
  INSOMNIA_SKIP_GOLDENS();
  const RunReport report = run_pinned_day("developing-world", "bh2-kswitch");
  expect_days(report, {375563, 414489}, {11674, 14214}, {307, 310});
  EXPECT_DOUBLE_EQ(report.day_savings, 0.35117422291297007);
  expect_series(report.savings_series,
                {0.6112859905463708, 0.6862874800318624, 0.6417682609544246, 0.5681523961781116,
                 0.34156827452556715, 0.18175794762484865, 0.13124229552061573,
                 0.09970039262733077, 0.11161101289865194, 0.14957913810215762,
                 0.20939627928997728, 0.48174120665572584},
                "savings");
}

TEST(RegressionPinnedDay, PaperDefaultBh2NobackupKswitch) {
  INSOMNIA_SKIP_GOLDENS();
  const RunReport report = run_pinned_day("paper-default", "bh2-nobackup-kswitch");
  expect_days(report, {642436, 684835}, {30121, 27577}, {435, 429});
  EXPECT_DOUBLE_EQ(report.day_savings, 0.5974341333518147);
  expect_series(report.savings_series,
                {0.8230641935738017, 0.8276534074036302, 0.796272320055718, 0.7974123448402755,
                 0.5827878737581295, 0.43059671900572205, 0.4216443755255832, 0.4504962530256924,
                 0.4345070404317025, 0.4405719599716761, 0.5082469324254073, 0.6559561802044366},
                "savings");
}

}  // namespace
}  // namespace insomnia::core
