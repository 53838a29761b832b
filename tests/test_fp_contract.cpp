// Known answer of one contraction-sensitive expression. With a = 1 + 2^-27
// and b = 1 - 2^-27 the exact product is 1 - 2^-54, which rounds to 1.0, so
// a*b + (-1) is 0 when the product is rounded on its own. A fused
// multiply-add rounds only once and returns -2^-54 instead. The operands are
// read through volatile, so the compiler cannot fold the expression at
// compile time: the arithmetic runs on the target, as the simulator's does.
// A build that contracts (-ffp-contract=fast on an FMA target) fails here,
// and its outputs would differ from a default x86-64 build's.
#include <cmath>

#include <gtest/gtest.h>

namespace {

TEST(FpContract, MultiplyAddRoundsTheProductOnItsOwn) {
  volatile double va = 1.0 + std::ldexp(1.0, -27);
  volatile double vb = 1.0 - std::ldexp(1.0, -27);
  volatile double vc = -1.0;
  const double a = va;
  const double b = vb;
  const double c = vc;
  EXPECT_EQ(a * b + c, 0.0);
}

}  // namespace
