#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "sim/random.h"
#include "util/error.h"

namespace insomnia::sim {
namespace {

TEST(Random, DeterministicFromSeed) {
  Random a(99);
  Random b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Random, DifferentSeedsDiverge) {
  Random a(1);
  Random b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1000) == b.uniform_int(0, 1000)) ++same;
  }
  EXPECT_LT(same, 10);
}

TEST(Random, UniformRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Random, UniformIntInclusive) {
  Random rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Random, BernoulliExtremes) {
  Random rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Random, ExponentialMean) {
  Random rng(13);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Random, NormalMoments) {
  Random rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 3.0, 0.05);
}

TEST(Random, BoundedParetoWithinBounds) {
  Random rng(19);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.bounded_pareto(1.2, 10.0, 1000.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LE(v, 1000.0);
  }
}

TEST(Random, BoundedParetoMatchesThePerDrawFormulaBitForBit) {
  // The hoisted constants must not change a single rounding: every golden
  // trace draws its flow sizes through them.
  const double alpha = 1.12;
  const double lo = 1.5e5;
  const double hi = 1.2e8;
  const BoundedPareto sizes(alpha, lo, hi);
  Random hoisted(23);
  Random inline_formula(23);
  for (int i = 0; i < 20000; ++i) {
    const double u = inline_formula.uniform(0.0, 1.0);
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    const double expected = std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
    ASSERT_EQ(sizes(hoisted), expected) << "draw " << i;
  }
}

TEST(Random, BoundedParetoIsHeavyTailed) {
  Random rng(19);
  int above_10x_min = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bounded_pareto(1.0, 1.0, 1000.0) > 10.0) ++above_10x_min;
  }
  // For alpha=1 truncated at 1000, P(X>10) = (1/10 - 1/1000)/(1 - 1/1000) ~ 9.9%.
  EXPECT_NEAR(static_cast<double>(above_10x_min) / n, 0.099, 0.02);
}

TEST(Random, PoissonMean) {
  Random rng(29);
  long sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(3.5);
  EXPECT_NEAR(static_cast<double>(sum) / n, 3.5, 0.05);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Random, BinomialBounds) {
  Random rng(31);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.binomial(10, 0.3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 10);
  }
}

TEST(Random, WeightedIndexProportions) {
  Random rng(37);
  const std::vector<double> weights{1.0, 3.0, 0.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.02);
}

TEST(Random, WeightedIndexAllZeroFallsBackToUniform) {
  Random rng(37);
  const std::vector<double> weights{0.0, 0.0, 0.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) ++counts[rng.weighted_index(weights)];
  for (int c : counts) EXPECT_GT(c, 500);
}

TEST(Random, WeightedIndexRejectsBadInput) {
  Random rng(1);
  EXPECT_THROW(rng.weighted_index({}), util::InvalidArgument);
  EXPECT_THROW(rng.weighted_index({1.0, -2.0}), util::InvalidArgument);
}

TEST(Random, ShufflePreservesElements) {
  Random rng(41);
  std::vector<int> items{1, 2, 3, 4, 5};
  auto copy = items;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, items);
}

TEST(Random, SubstreamSeedIsAPureFunction) {
  EXPECT_EQ(Random::substream_seed(42, 3, 5), Random::substream_seed(42, 3, 5));
  // Distinct along every axis.
  EXPECT_NE(Random::substream_seed(42, 3, 5), Random::substream_seed(43, 3, 5));
  EXPECT_NE(Random::substream_seed(42, 3, 5), Random::substream_seed(42, 4, 5));
  EXPECT_NE(Random::substream_seed(42, 3, 5), Random::substream_seed(42, 3, 6));
}

TEST(Random, SubstreamSeedHasNoAdjacentCollisions) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t stream = 0; stream < 64; ++stream) {
    for (std::uint64_t salt = 0; salt < 64; ++salt) {
      seen.insert(Random::substream_seed(1234, stream, salt));
    }
  }
  EXPECT_EQ(seen.size(), 64u * 64u);
}

TEST(Random, KeyedForkIsOrderIndependent) {
  // The substream keyed 7 must not depend on what else the parent did
  // first — that is what makes parallel sweeps bit-reproducible.
  Random fresh(55);
  Random exercised(55);
  for (int i = 0; i < 1000; ++i) exercised.uniform(0.0, 1.0);
  Random drained = exercised.fork();  // unkeyed fork consumes state; still no effect
  (void)drained;
  Random a = fresh.fork(7);
  Random b = exercised.fork(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Random, KeyedForksWithDifferentKeysDiverge) {
  Random parent(55);
  Random a = parent.fork(1);
  Random b = parent.fork(2);
  Random c = parent.fork(1, 9);
  int same_ab = 0;
  int same_ac = 0;
  for (int i = 0; i < 100; ++i) {
    const int va = a.uniform_int(0, 10000);
    const int vb = b.uniform_int(0, 10000);
    const int vc = c.uniform_int(0, 10000);
    if (va == vb) ++same_ab;
    if (va == vc) ++same_ac;
  }
  EXPECT_LT(same_ab, 5);
  EXPECT_LT(same_ac, 5);
}

TEST(Random, KeyedForkDecorrelatesFromParent) {
  Random parent(55);
  Random child = parent.fork(0);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.uniform_int(0, 10000) == child.uniform_int(0, 10000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Random, SeedAccessorReturnsConstructionSeed) {
  EXPECT_EQ(Random(99).seed(), 99u);
  Random rng(7);
  rng.uniform(0.0, 1.0);
  EXPECT_EQ(rng.seed(), 7u);  // drawing does not change identity
}

TEST(Random, ForkDecorrelates) {
  Random parent(55);
  Random child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.uniform_int(0, 10000) == child.uniform_int(0, 10000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Random, ArgumentValidation) {
  Random rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), util::InvalidArgument);
  EXPECT_THROW(rng.exponential(0.0), util::InvalidArgument);
  EXPECT_THROW(rng.normal(0.0, -1.0), util::InvalidArgument);
  EXPECT_THROW(rng.bounded_pareto(0.0, 1.0, 2.0), util::InvalidArgument);
  EXPECT_THROW(rng.bounded_pareto(1.0, 2.0, 1.0), util::InvalidArgument);
  EXPECT_THROW(BoundedPareto(-1.0, 1.0, 2.0), util::InvalidArgument);
  EXPECT_THROW(BoundedPareto(1.0, 0.0, 2.0), util::InvalidArgument);
}

}  // namespace
}  // namespace insomnia::sim
