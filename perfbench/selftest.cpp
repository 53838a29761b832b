// Checks the benchmark's own arithmetic (arith.h) on synthetic inputs whose
// answers are known by hand. Exits non-zero on the first wrong answer;
// run.py runs it before every measurement.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "arith.h"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "selftest: %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

template <typename Fn>
void expect_throws(Fn&& fn, const char* what) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return;
  }
  std::fprintf(stderr, "selftest: %s: expected std::invalid_argument\n", what);
  ++failures;
}

void quantiles() {
  using perfbench::quantile;
  // Unsorted input; type-7 positions q * (n - 1) over 1..10.
  const std::vector<double> v = {7, 1, 10, 3, 5, 2, 9, 4, 8, 6};
  expect_near(quantile(v, 0.0), 1.0, "quantile min");
  expect_near(quantile(v, 1.0), 10.0, "quantile max");
  expect_near(quantile(v, 0.5), 5.5, "quantile median, even count");
  expect_near(quantile(v, 0.9), 9.1, "quantile p90 interpolates");
  expect_near(quantile(v, 0.99), 9.91, "quantile p99 interpolates");
  expect_near(quantile({4, 2, 9}, 0.5), 4.0, "quantile median, odd count");
  expect_near(quantile({3.25}, 0.99), 3.25, "single sample reads back exactly");
  expect_near(perfbench::median({5, 5, 5, 5}), 5.0, "median of ties");
  // Medians 2, 10 and 6: one slow outlier per input moves none of them.
  expect_near(perfbench::mean_of_medians({{1, 2, 90}, {10, 10, 11, 9, 500}, {6}}), 6.0,
              "mean of medians");
  expect_throws([] { perfbench::mean_of_medians({}); }, "mean of no medians");
  expect_throws([] { quantile({}, 0.5); }, "quantile of nothing");
  expect_throws([] { quantile({1, 2}, 1.5); }, "quantile above 1");
}

void lag() {
  using perfbench::lag_ms;
  // Clock starts at 1 s. At speedup 2, virtual second 3 is due 1.5 s later,
  // at 2.5 s; handed over at 2.6 s it is 100 ms late.
  expect_near(lag_ms(1'000'000'000, 3.0, 2.0, 2'600'000'000), 100.0, "lag at speedup 2");
  // At speedup 1000, virtual second 50 is due 50 ms after the start.
  expect_near(lag_ms(0, 50.0, 1000.0, 70'000'000), 20.0, "lag at speedup 1000");
  // A record handed over before it was due has negative lag.
  expect_near(lag_ms(0, 10.0, 1.0, 9'999'000'000), -1.0, "early hand-over");
  // A record at virtual time 0 is due at the start itself.
  expect_near(lag_ms(5, 0.0, 123.0, 1'000'005), 1.0, "record at time zero");
  expect_throws([] { lag_ms(0, 1.0, 0.0, 1); }, "zero speedup");
}

void fleet_ratios() {
  // 30 ms of cities on 4 threads in 10 ms of wall: 75 % busy.
  expect_near(perfbench::busy_frac(30.0, 4, 10.0), 0.75, "busy_frac");
  expect_near(perfbench::busy_frac(10.0, 1, 10.0), 1.0, "busy_frac, one serial thread");
  expect_near(perfbench::critical_path_frac(7.0, 7.5), 7.0 / 7.5, "critical_path_frac");
  expect_throws([] { perfbench::busy_frac(1.0, 0, 1.0); }, "busy_frac without threads");
  expect_throws([] { perfbench::critical_path_frac(1.0, 0.0); }, "critical path over no wall");
}

void failures_over_attempts() {
  expect_near(perfbench::failed_frac(0, 35), 0.0, "failed_frac clean");
  expect_near(perfbench::failed_frac(7, 35), 0.2, "failed_frac one shard of five");
  expect_near(perfbench::failed_frac(3, 3), 1.0, "failed_frac all");
  expect_throws([] { perfbench::failed_frac(0, 0); }, "failed_frac of nothing");
  expect_throws([] { perfbench::failed_frac(2, 1); }, "more failures than attempts");
}

void self_time() {
  using perfbench::Span;
  // Root [0, 100) with children [10, 30) and [30, 90): 20 ns uncovered.
  std::vector<Span> spans = {{"root", -1, 0, 100}, {"a", 0, 10, 30}, {"b", 0, 30, 90}};
  expect_near(perfbench::self_ms(spans, 0), 20e-6, "self time, adjacent children");
  // Overlapping children count once; a grandchild is not a direct child.
  spans = {{"root", -1, 0, 100}, {"a", 0, 10, 60}, {"b", 0, 40, 80}, {"c", 1, 20, 30}};
  expect_near(perfbench::self_ms(spans, 0), 30e-6, "self time, overlapping children");
  // A child spilling past its parent is clipped to it.
  spans = {{"root", -1, 100, 200}, {"a", 0, 50, 150}, {"b", 0, 190, 250}};
  expect_near(perfbench::self_ms(spans, 0), 40e-6, "self time, clipped children");
  spans = {{"root", -1, 0, 100}};
  expect_near(perfbench::self_ms(spans, 0), 100e-6, "self time, leaf");
}

}  // namespace

int main() {
  quantiles();
  lag();
  fleet_ratios();
  failures_over_attempts();
  self_time();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
