#include "country/country_config.h"

#include <cmath>
#include <limits>
#include <string>

#include "util/error.h"
#include "util/strings.h"

namespace insomnia::country {

void validate(const CountryConfig& config) {
  util::require(!config.regions.empty(), "country needs at least one region");
  util::require(config.peak_start < config.peak_end,
                "country peak window must be non-empty (start < end)");
  for (const RegionConfig& region : config.regions) {
    util::require(!region.name.empty(), "every region needs a name");
    util::require(region.cities >= 1,
                  "region \"" + region.name + "\" needs at least one city");
    util::require(!region.portfolio.empty(),
                  "region \"" + region.name + "\" needs a non-empty portfolio");
    for (const CityTemplate& tmpl : region.portfolio) {
      util::require(tmpl.weight > 0.0, "template \"" + tmpl.name +
                                           "\" weight must be positive");
      util::require(tmpl.neighbourhoods_min >= 1,
                    "template \"" + tmpl.name + "\" needs at least one neighbourhood");
      util::require(tmpl.neighbourhoods_max >= tmpl.neighbourhoods_min,
                    "template \"" + tmpl.name + "\" neighbourhood range is backwards");
      // Reuse the city layer's mix/jitter rules via a throwaway CityConfig.
      city::CityConfig probe;
      probe.mix = tmpl.mix;
      city::validate(probe);
    }
  }
}

std::size_t total_city_shards(const CountryConfig& config) {
  std::size_t total = 0;
  for (const RegionConfig& region : config.regions) {
    total += static_cast<std::size_t>(region.cities);
  }
  return total;
}

namespace {

// Rounds value * scale to a count of at least 1. A count above INT_MAX is
// refused rather than wrapped.
int scaled(int value, double scale) {
  const double count = std::round(value * scale);
  util::require(count <= static_cast<double>(std::numeric_limits<int>::max()),
                "country scale turns a count of " + std::to_string(value) + " into " +
                    util::format_fixed(count, 0) + ", above INT_MAX");
  return std::max(1, static_cast<int>(count));
}

CityTemplate make_template(const std::string& name, double weight,
                           std::vector<city::CityMixComponent> mix, int nbhd_min,
                           int nbhd_max, double neighbourhood_scale) {
  CityTemplate tmpl;
  tmpl.name = name;
  tmpl.weight = weight;
  tmpl.mix = std::move(mix);
  tmpl.neighbourhoods_min = scaled(nbhd_min, neighbourhood_scale);
  tmpl.neighbourhoods_max =
      std::max(tmpl.neighbourhoods_min, scaled(nbhd_max, neighbourhood_scale));
  return tmpl;
}

}  // namespace

CountryConfig default_country(double city_scale, double neighbourhood_scale) {
  util::require(city_scale > 0.0 && neighbourhood_scale > 0.0 &&
                    std::isfinite(city_scale) && std::isfinite(neighbourhood_scale),
                "country scale factors must be positive and finite");

  // Moderate per-neighbourhood variation.
  city::NeighbourhoodJitter jitter;
  jitter.gateway_count_spread = 0.25;
  jitter.client_density_spread = 0.25;
  jitter.backhaul_sigma = 0.20;
  jitter.diurnal_phase_spread = 2.0 * 3600.0;

  // Sparser plants vary more: rural build-outs and developing-world
  // deployments differ block to block far more than a planned metro core.
  city::NeighbourhoodJitter wide = jitter;
  wide.gateway_count_spread = 0.35;
  wide.client_density_spread = 0.35;
  wide.backhaul_sigma = 0.35;
  wide.diurnal_phase_spread = 3.0 * 3600.0;

  const double ns = neighbourhood_scale;

  RegionConfig metro;
  metro.name = "metro";
  metro.cities = scaled(90, city_scale);
  metro.portfolio = {
      make_template("metro-core", 0.6,
                    {{"dense-urban", 0.80, jitter}, {"paper-default", 0.20, jitter}},
                    56, 96, ns),
      make_template("metro-ring", 0.4,
                    {{"dense-urban", 0.45, jitter}, {"paper-default", 0.55, jitter}},
                    40, 72, ns),
  };

  RegionConfig suburban;
  suburban.name = "suburban";
  suburban.cities = scaled(200, city_scale);
  suburban.portfolio = {
      make_template("suburb-carpet", 0.7,
                    {{"paper-default", 0.80, jitter},
                     {"dense-urban", 0.10, jitter},
                     {"sparse-rural", 0.10, jitter}},
                    40, 72, ns),
      make_template("suburb-edge", 0.3,
                    {{"paper-default", 0.60, jitter}, {"sparse-rural", 0.40, wide}},
                    32, 56, ns),
  };

  RegionConfig rural;
  rural.name = "rural";
  rural.cities = scaled(150, city_scale);
  rural.portfolio = {
      make_template("rural-town", 0.5,
                    {{"sparse-rural", 0.70, wide}, {"paper-default", 0.30, jitter}},
                    24, 48, ns),
      make_template("rural-stretch", 0.5, {{"sparse-rural", 1.0, wide}}, 20, 40, ns),
  };

  RegionConfig developing;
  developing.name = "developing";
  developing.cities = scaled(180, city_scale);
  developing.portfolio = {
      make_template("developing-town", 0.6,
                    {{"developing-world", 0.85, wide}, {"sparse-rural", 0.15, wide}},
                    32, 64, ns),
      make_template("developing-metro", 0.4,
                    {{"developing-world", 0.55, wide}, {"paper-default", 0.45, jitter}},
                    40, 72, ns),
  };

  CountryConfig config;
  config.name = "default-country";
  config.regions = {metro, suburban, rural, developing};
  return config;
}

}  // namespace insomnia::country
