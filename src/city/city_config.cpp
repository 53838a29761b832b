#include "city/city_config.h"

#include "util/error.h"

namespace insomnia::city {

void validate(const CityConfig& config) {
  util::require(!config.mix.empty(), "city mix must name at least one preset");
  util::require(config.neighbourhoods >= 1, "city needs at least one neighbourhood");
  util::require(config.peak_start < config.peak_end,
                "city peak window must be non-empty (start < end)");
  for (const CityMixComponent& component : config.mix) {
    util::require(component.weight > 0.0,
                  "mix weight for \"" + component.preset + "\" must be positive");
    const NeighbourhoodJitter& j = component.jitter;
    util::require(j.gateway_count_spread >= 0.0 && j.gateway_count_spread < 1.0,
                  "gateway_count_spread must be in [0, 1)");
    util::require(j.client_density_spread >= 0.0 && j.client_density_spread < 1.0,
                  "client_density_spread must be in [0, 1)");
    util::require(j.backhaul_sigma >= 0.0, "backhaul_sigma must be non-negative");
    util::require(j.diurnal_phase_spread >= 0.0,
                  "diurnal_phase_spread must be non-negative");
  }
}

}  // namespace insomnia::city
