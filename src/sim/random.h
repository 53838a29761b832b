// Deterministic, seedable randomness for simulations. All stochastic code in
// the library draws through this wrapper so that every experiment is exactly
// reproducible from its seed.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace insomnia::sim {

/// A seeded random source with the distributions the simulators need.
///
/// Thin wrapper over std::mt19937_64: the point is a single choke-point for
/// randomness (reproducibility, easy substitution in tests) plus the
/// heavy-tailed distributions (bounded Pareto, log-normal) that the trace
/// generator relies on.
class Random {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Random(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// The seed this generator was constructed from. Keyed forks derive from
  /// it, so substreams are a function of (seed, key) alone — never of how
  /// many values the parent has drawn.
  std::uint64_t seed() const { return seed_; }

  /// Mixes (seed, stream, salt) into an independent substream seed with a
  /// splitmix64-style finalizer. Pure function of its inputs: two call sites
  /// computing the same key get the same seed regardless of execution order,
  /// which is what makes sharded parallel experiments bit-reproducible.
  static std::uint64_t substream_seed(std::uint64_t seed, std::uint64_t stream,
                                      std::uint64_t salt = 0);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);

  /// True with probability p (p clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponentially distributed with the given mean (> 0).
  double exponential(double mean);

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal parameterised by the *underlying* normal's mu and sigma.
  double lognormal(double mu, double sigma);

  /// Bounded Pareto on [lo, hi] with tail exponent alpha (> 0). Heavy-tailed
  /// flow sizes use this; the bound keeps single flows from exceeding what a
  /// 6 Mbps day could carry. Hot loops hold a BoundedPareto instead, which
  /// draws the same values without recomputing the constants per call.
  double bounded_pareto(double alpha, double lo, double hi);

  /// Binomially distributed count of successes out of n trials.
  int binomial(int n, double p);

  /// Poisson with the given mean.
  int poisson(double mean);

  /// Picks an index in [0, weights.size()) with probability proportional to
  /// weights[i]; all-zero weights degenerate to uniform choice.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<int>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent child generator (for per-run streams). Consumes
  /// parent state: the child depends on how much the parent has drawn. Use
  /// the keyed overload when substreams must be order-independent.
  Random fork();

  /// Derives an independent child keyed by (stream, salt), from the
  /// *construction* seed only. Const and order-independent: fork(3) returns
  /// the same generator whether called before or after any other draws or
  /// forks, so each (scheme, run, point) of a sharded sweep can claim a
  /// stable substream by index.
  Random fork(std::uint64_t stream, std::uint64_t salt = 0) const;

  /// Access to the raw engine, for std distributions not wrapped here.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

/// Bounded Pareto on [lo, hi] with tail exponent alpha, its per-draw
/// constants precomputed once. The one home of the inverse-transform
/// formula: Random::bounded_pareto delegates here, so both draw
/// bit-identical values from the same stream.
class BoundedPareto {
 public:
  /// Throws util::InvalidArgument unless alpha > 0 and hi > lo > 0.
  BoundedPareto(double alpha, double lo, double hi);

  /// One draw: consumes one uniform from `rng`.
  double operator()(Random& rng) const;

 private:
  double lo_alpha_;       ///< lo^alpha
  double hi_alpha_;       ///< hi^alpha
  double product_;        ///< hi^alpha * lo^alpha
  double neg_inv_alpha_;  ///< -1 / alpha
};

}  // namespace insomnia::sim
