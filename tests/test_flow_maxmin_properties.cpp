// Property-based tests for the single-link max-min water-fill oracle
// (tests/support/max_min_oracle.h), then both fluid engines held to it.
// Randomized capacities/caps check the classic max-min characterization
// rather than hand-picked outputs:
//  * feasibility: 0 <= rate <= cap, sum(rates) <= capacity,
//  * bottleneck saturation: demand >= capacity => the link is fully used;
//    demand < capacity => every flow gets exactly its cap,
//  * pairwise fairness: a flow strictly poorer than another is pinned at
//    its own cap (no one can gain without a richer flow losing),
//  * each engine's incremental water-fill, read back per client, matches
//    the oracle: bit for bit on distinct caps, within roundoff on ties.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/random.h"
#include "sim/simulator.h"
#include "support/fluid_engines.h"
#include "support/max_min_oracle.h"
#include "util/error.h"

namespace insomnia::flow {
namespace {

// Caps drawn from a deliberately lumpy mixture: exact zeros, sub-share
// trickles, near-share contenders and effectively-uncapped giants, so every
// branch of the water-fill (cap-limited and share-limited) is exercised.
std::vector<double> random_caps(sim::Random& rng, int count, double capacity) {
  std::vector<double> caps;
  caps.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.08) {
      caps.push_back(0.0);
    } else if (roll < 0.4) {
      caps.push_back(rng.uniform(0.0, capacity / std::max(1, count)));
    } else if (roll < 0.8) {
      caps.push_back(rng.uniform(0.0, 2.0 * capacity / std::max(1, count)));
    } else {
      caps.push_back(rng.uniform(capacity, 10.0 * capacity));
    }
  }
  return caps;
}

TEST(MaxMinProperties, FeasibilityAndBottleneckSaturation) {
  sim::Random rng(20260807);
  for (int trial = 0; trial < 2000; ++trial) {
    const int count = rng.uniform_int(1, 300);
    const double capacity = rng.uniform(1e-3, 1e8);
    const std::vector<double> caps = random_caps(rng, count, capacity);
    const std::vector<double> rates = max_min_allocate(capacity, caps);
    ASSERT_EQ(rates.size(), caps.size());

    double total = 0.0;
    double demand = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      ASSERT_GE(rates[i], 0.0) << "trial " << trial << " flow " << i;
      ASSERT_LE(rates[i], caps[i]) << "trial " << trial << " flow " << i;
      total += rates[i];
      demand += caps[i];
    }
    ASSERT_LE(total, capacity * (1.0 + 1e-12) + 1e-12) << "trial " << trial;

    if (demand >= capacity) {
      // The link is the bottleneck: it must be saturated (up to FP roundoff
      // of the sequential fill).
      ASSERT_NEAR(total, capacity, capacity * 1e-9) << "trial " << trial;
    } else {
      // Demand-limited: every flow is pinned at its cap, exactly — the fill
      // computes rate = min(cap, share) and share never drops below the
      // smallest remaining cap.
      for (std::size_t i = 0; i < rates.size(); ++i) {
        ASSERT_EQ(rates[i], caps[i]) << "trial " << trial << " flow " << i;
      }
    }
  }
}

TEST(MaxMinProperties, PairwiseFairness) {
  // If flow i ends strictly poorer than flow j, i must be at its own cap:
  // otherwise transferring rate from j to i would raise the minimum, which
  // max-min forbids. Capped rates are assigned as `rate = cap` verbatim, so
  // the cap check is exact; the strictness margin absorbs the water-fill's
  // share roundoff.
  sim::Random rng(77001);
  for (int trial = 0; trial < 500; ++trial) {
    const int count = rng.uniform_int(2, 120);
    const double capacity = rng.uniform(1e-3, 1e7);
    const std::vector<double> caps = random_caps(rng, count, capacity);
    const std::vector<double> rates = max_min_allocate(capacity, caps);
    const double tol = capacity * 1e-12;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      for (std::size_t j = 0; j < rates.size(); ++j) {
        if (rates[i] + tol < rates[j]) {
          ASSERT_EQ(rates[i], caps[i])
              << "trial " << trial << ": flow " << i << " (rate " << rates[i]
              << ") is poorer than flow " << j << " (rate " << rates[j]
              << ") yet below its cap " << caps[i];
        }
      }
    }
  }
}

TEST(MaxMinProperties, EdgeCases) {
  // Deterministic boundary shapes the fuzz loops hit only by chance.
  EXPECT_TRUE(max_min_allocate(5.0, {}).empty());

  const std::vector<double> zero_cap = max_min_allocate(0.0, {1.0, 2.0});
  EXPECT_EQ(zero_cap, (std::vector<double>{0.0, 0.0}));

  const std::vector<double> all_zero = max_min_allocate(9.0, {0.0, 0.0, 0.0});
  EXPECT_EQ(all_zero, (std::vector<double>{0.0, 0.0, 0.0}));

  // Equal uncapped flows share exactly (6/3 is representable).
  const std::vector<double> equal = max_min_allocate(6.0, {100.0, 100.0, 100.0});
  EXPECT_EQ(equal, (std::vector<double>{2.0, 2.0, 2.0}));

  // One tiny flow frees surplus for the other two.
  const std::vector<double> skewed = max_min_allocate(6.0, {1.0, 100.0, 100.0});
  EXPECT_EQ(skewed[0], 1.0);
  EXPECT_EQ(skewed[1], 2.5);
  EXPECT_EQ(skewed[2], 2.5);

  EXPECT_THROW(max_min_allocate(-1.0, {1.0}), util::InvalidArgument);
  EXPECT_THROW(max_min_allocate(1.0, {-0.5}), util::InvalidArgument);
}

/// One gateway of `capacity` with one long flow per client, client c capped
/// at caps[c]: each client's rate at time zero, as `engine` water-fills it.
std::vector<double> engine_rates(TestEngine engine, double capacity,
                                 const std::vector<double>& caps) {
  sim::Simulator sim;
  const auto net = make_test_engine(engine, sim, {capacity});
  net->set_gateway_serving(0, true);
  for (std::size_t c = 0; c < caps.size(); ++c) {
    net->add_flow(c, static_cast<int>(c), 0, 1e15, caps[c]);
  }
  std::vector<double> rates;
  for (std::size_t c = 0; c < caps.size(); ++c) {
    rates.push_back(net->client_throughput_at(static_cast<int>(c), 0));
  }
  return rates;
}

class EngineWaterfill : public ::testing::TestWithParam<TestEngine> {};

TEST_P(EngineWaterfill, DistinctCapsMatchTheOracleBitForBit) {
  // Caps straddle the equal share, so both the cap-limited and the
  // share-limited branches run. With no ties the sorted order is unique,
  // and the engines' arithmetic is the oracle's.
  sim::Random rng(8123);
  for (int trial = 0; trial < 300; ++trial) {
    const int count = rng.uniform_int(1, 30);
    const double capacity = rng.uniform(1e6, 5e7);
    std::vector<double> caps;
    for (int c = 0; c < count; ++c) {
      caps.push_back(rng.uniform(0.2, 2.0) * capacity / count);
    }
    const std::vector<double> expected = max_min_allocate(capacity, caps);
    const std::vector<double> rates = engine_rates(GetParam(), capacity, caps);
    for (std::size_t c = 0; c < caps.size(); ++c) {
      ASSERT_EQ(rates[c], expected[c]) << "trial " << trial << " client " << c;
    }
  }
}

TEST_P(EngineWaterfill, TieHeavyCapsMatchTheOracleWithinRoundoff) {
  // Two cap values, the simulator's regime (every client of a gateway sits
  // at one of two wireless rates). Equal caps may be filled in a different
  // order than the oracle's sort, which moves only the last bits of the
  // share-limited rates.
  sim::Random rng(8124);
  for (int trial = 0; trial < 300; ++trial) {
    const int count = rng.uniform_int(1, 30);
    const double capacity = rng.uniform(1e6, 5e7);
    const double low = rng.uniform(0.2, 1.0) * capacity / count;
    const double high = rng.uniform(1.0, 2.0) * capacity / count;
    std::vector<double> caps;
    for (int c = 0; c < count; ++c) caps.push_back(rng.bernoulli(0.5) ? low : high);
    const std::vector<double> expected = max_min_allocate(capacity, caps);
    const std::vector<double> rates = engine_rates(GetParam(), capacity, caps);
    for (std::size_t c = 0; c < caps.size(); ++c) {
      ASSERT_LE(std::abs(rates[c] - expected[c]), 1e-13 * expected[c])
          << "trial " << trial << " client " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothEngines, EngineWaterfill,
                         ::testing::Values(TestEngine::kReference, TestEngine::kIncremental),
                         [](const ::testing::TestParamInfo<TestEngine>& info) {
                           return std::string(test_engine_name(info.param));
                         });

}  // namespace
}  // namespace insomnia::flow
