#include "trace/adsl_utilization.h"

#include <algorithm>
#include <cmath>

#include "stats/summary.h"
#include "util/error.h"
#include "util/units.h"

namespace insomnia::trace {

AdslUtilizationDay generate_adsl_utilization(const AdslUtilizationConfig& config,
                                             sim::Random& rng) {
  util::require(config.subscriber_count > 0, "need at least one subscriber");
  AdslUtilizationDay day;
  day.downlink.average.resize(24);
  day.downlink.median.resize(24);
  day.uplink.average.resize(24);
  day.uplink.median.resize(24);

  const sim::BoundedPareto active_burst(config.active_alpha, config.active_min,
                                        config.active_max);
  std::vector<double> down(config.subscriber_count);
  std::vector<double> up(config.subscriber_count);
  for (int hour = 0; hour < 24; ++hour) {
    const double t = (static_cast<double>(hour) + 0.5) * util::kSecondsPerHour;
    const double active_probability =
        config.active_probability_at_peak * config.profile.at(t);
    for (int s = 0; s < config.subscriber_count; ++s) {
      double d = rng.exponential(config.background_mean);
      if (rng.bernoulli(active_probability)) {
        d += active_burst(rng);
      }
      d = std::min(d, 1.0);
      down[s] = d;
      up[s] = std::min(d * config.uplink_ratio, 1.0);
    }
    day.downlink.average[hour] = stats::mean_of(down);
    day.downlink.median[hour] = stats::median(down);
    day.uplink.average[hour] = stats::mean_of(up);
    day.uplink.median[hour] = stats::median(up);
  }
  return day;
}

}  // namespace insomnia::trace
