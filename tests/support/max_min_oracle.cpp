#include "support/max_min_oracle.h"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "util/error.h"

namespace insomnia::flow {

std::vector<double> max_min_allocate(double capacity, const std::vector<double>& caps) {
  util::require(capacity >= 0.0, "max_min_allocate needs non-negative capacity");
  std::vector<double> rates(caps.size(), 0.0);
  if (caps.empty() || capacity == 0.0) return rates;

  // Process flows in ascending cap order: a flow whose cap is below the
  // current equal share freezes at its cap and releases the surplus.
  std::vector<std::size_t> order(caps.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&caps](std::size_t a, std::size_t b) { return caps[a] < caps[b]; });

  double remaining = capacity;
  std::size_t left = caps.size();
  for (std::size_t index : order) {
    util::require(caps[index] >= 0.0, "flow caps must be non-negative");
    const double share = remaining / static_cast<double>(left);
    const double rate = std::min(caps[index], share);
    rates[index] = rate;
    remaining -= rate;
    --left;
  }
  return rates;
}

}  // namespace insomnia::flow
