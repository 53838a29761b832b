#include "sim/random.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace insomnia::sim {

double Random::uniform(double lo, double hi) {
  util::require(hi >= lo, "uniform needs hi >= lo");
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int Random::uniform_int(int lo, int hi) {
  util::require(hi >= lo, "uniform_int needs hi >= lo");
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(engine_);
}

bool Random::bernoulli(double p) {
  const double clamped = std::clamp(p, 0.0, 1.0);
  std::bernoulli_distribution dist(clamped);
  return dist(engine_);
}

double Random::exponential(double mean) {
  util::require(mean > 0.0, "exponential needs mean > 0");
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

double Random::normal(double mean, double stddev) {
  util::require(stddev >= 0.0, "normal needs stddev >= 0");
  if (stddev == 0.0) return mean;
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Random::lognormal(double mu, double sigma) {
  util::require(sigma >= 0.0, "lognormal needs sigma >= 0");
  std::lognormal_distribution<double> dist(mu, sigma);
  return dist(engine_);
}

double Random::bounded_pareto(double alpha, double lo, double hi) {
  return BoundedPareto(alpha, lo, hi)(*this);
}

int Random::binomial(int n, double p) {
  util::require(n >= 0, "binomial needs n >= 0");
  std::binomial_distribution<int> dist(n, std::clamp(p, 0.0, 1.0));
  return dist(engine_);
}

int Random::poisson(double mean) {
  util::require(mean >= 0.0, "poisson needs mean >= 0");
  if (mean == 0.0) return 0;
  std::poisson_distribution<int> dist(mean);
  return dist(engine_);
}

std::size_t Random::weighted_index(const std::vector<double>& weights) {
  util::require(!weights.empty(), "weighted_index over empty weights");
  double total = 0.0;
  for (double w : weights) {
    util::require(w >= 0.0, "weighted_index needs non-negative weights");
    total += w;
  }
  if (total <= 0.0) {
    return static_cast<std::size_t>(uniform_int(0, static_cast<int>(weights.size()) - 1));
  }
  double point = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    point -= weights[i];
    if (point < 0.0) return i;
  }
  return weights.size() - 1;
}

std::uint64_t Random::substream_seed(std::uint64_t seed, std::uint64_t stream,
                                     std::uint64_t salt) {
  // The +1 offsets keep (stream, salt) = (0, 0) from collapsing to the bare
  // seed; the finalizer is splitmix64's, so adjacent indices land far apart.
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (stream + 1) +
                    0xbf58476d1ce4e5b9ULL * (salt + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  return x;
}

Random Random::fork() {
  // Draw two words to decorrelate the child stream from subsequent parent use.
  const std::uint64_t a = engine_();
  const std::uint64_t b = engine_();
  return Random(a ^ (b << 1) ^ 0x9e3779b97f4a7c15ULL);
}

Random Random::fork(std::uint64_t stream, std::uint64_t salt) const {
  return Random(substream_seed(seed_, stream, salt));
}

BoundedPareto::BoundedPareto(double alpha, double lo, double hi)
    : lo_alpha_(std::pow(lo, alpha)),
      hi_alpha_(std::pow(hi, alpha)),
      product_(hi_alpha_ * lo_alpha_),
      neg_inv_alpha_(-1.0 / alpha) {
  util::require(alpha > 0.0 && lo > 0.0 && hi > lo, "bounded_pareto needs alpha>0, hi>lo>0");
}

double BoundedPareto::operator()(Random& rng) const {
  // Inverse-transform sampling of the truncated Pareto CDF.
  const double u = rng.uniform(0.0, 1.0);
  const double x = -(u * hi_alpha_ - u * lo_alpha_ - hi_alpha_) / product_;
  return std::pow(x, neg_inv_alpha_);
}

}  // namespace insomnia::sim
