#include <numeric>

#include <gtest/gtest.h>

#include "sim/random.h"
#include "support/max_min_oracle.h"
#include "util/error.h"

namespace insomnia::flow {
namespace {

TEST(MaxMin, EmptyFlows) {
  EXPECT_TRUE(max_min_allocate(10.0, {}).empty());
}

TEST(MaxMin, SingleFlowTakesMinOfCapAndCapacity) {
  EXPECT_DOUBLE_EQ(max_min_allocate(10.0, {4.0})[0], 4.0);
  EXPECT_DOUBLE_EQ(max_min_allocate(3.0, {4.0})[0], 3.0);
}

TEST(MaxMin, EqualShareWhenUncapped) {
  const auto rates = max_min_allocate(9.0, {100.0, 100.0, 100.0});
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 3.0);
}

TEST(MaxMin, CappedFlowReleasesSurplus) {
  // Caps 1, 10, 10 with capacity 9: flow 0 freezes at 1, others get 4 each.
  const auto rates = max_min_allocate(9.0, {1.0, 10.0, 10.0});
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
  EXPECT_DOUBLE_EQ(rates[1], 4.0);
  EXPECT_DOUBLE_EQ(rates[2], 4.0);
}

TEST(MaxMin, OrderIndependence) {
  const auto a = max_min_allocate(9.0, {1.0, 10.0, 5.0});
  const auto b = max_min_allocate(9.0, {10.0, 5.0, 1.0});
  EXPECT_DOUBLE_EQ(a[0], b[2]);
  EXPECT_DOUBLE_EQ(a[1], b[0]);
  EXPECT_DOUBLE_EQ(a[2], b[1]);
}

TEST(MaxMin, ZeroCapacity) {
  const auto rates = max_min_allocate(0.0, {5.0, 5.0});
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
}

TEST(MaxMin, ZeroCapFlowGetsZero) {
  const auto rates = max_min_allocate(10.0, {0.0, 5.0});
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 5.0);
}

TEST(MaxMin, RejectsNegativeInput) {
  EXPECT_THROW(max_min_allocate(-1.0, {1.0}), util::InvalidArgument);
  EXPECT_THROW(max_min_allocate(1.0, {-1.0}), util::InvalidArgument);
}

/// Property sweep over random instances: feasibility, work conservation and
/// max-min fairness.
class MaxMinProperties : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinProperties, InvariantsHold) {
  sim::Random rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 200; ++trial) {
    const int n = rng.uniform_int(1, 20);
    const double capacity = rng.uniform(0.0, 50.0);
    std::vector<double> caps;
    for (int i = 0; i < n; ++i) caps.push_back(rng.uniform(0.0, 10.0));

    const auto rates = max_min_allocate(capacity, caps);
    ASSERT_EQ(rates.size(), caps.size());

    double total = 0.0;
    for (std::size_t i = 0; i < caps.size(); ++i) {
      // Feasibility.
      EXPECT_LE(rates[i], caps[i] + 1e-9);
      EXPECT_GE(rates[i], -1e-12);
      total += rates[i];
    }
    // Capacity respected.
    EXPECT_LE(total, capacity + 1e-9);

    // Work conservation: link fully used when demand allows.
    const double demand = std::accumulate(caps.begin(), caps.end(), 0.0);
    if (demand >= capacity) {
      EXPECT_NEAR(total, capacity, 1e-9 * (1.0 + capacity));
    } else {
      EXPECT_NEAR(total, demand, 1e-9 * (1.0 + demand));
    }

    // Max-min fairness: a flow below its cap must have a rate >= every
    // other flow's rate (no one is richer than an unsatisfied flow).
    for (std::size_t i = 0; i < caps.size(); ++i) {
      if (rates[i] < caps[i] - 1e-9) {
        for (std::size_t j = 0; j < caps.size(); ++j) {
          EXPECT_LE(rates[j], rates[i] + 1e-9);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperties, ::testing::Range(1, 11));

}  // namespace
}  // namespace insomnia::flow
