// Streaming bounded-memory roll-ups for a country-scale federated fleet.
// Each simulated city collapses into a CityDigest — its city::FleetTotals
// plus its shard identity — so a 620-city, ≥1M-gateway run carries
// kilobytes of state, not day series. Digests fold into RegionMetrics and
// CountryMetrics in canonical (region, city) order; because each digest is a
// pure function of (config, region, city) and the fold order is fixed, the
// final aggregates are bit-identical at any thread or process count and
// across checkpoint/resume splits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "city/city_metrics.h"

namespace insomnia::country {

/// Everything one simulated city contributes to the country aggregates: the
/// city's totals, carried verbatim, and which shard it was.
struct CityDigest : city::FleetTotals {
  std::uint32_t region = 0;  ///< region index in CountryConfig::regions
  std::uint32_t city = 0;    ///< city index within the region
  std::size_t template_index = 0;  ///< which portfolio archetype was drawn
};

/// Builds the digest of one simulated city from its folded CityMetrics.
CityDigest digest_from_city(const city::CityMetrics& metrics, std::uint32_t region,
                            std::uint32_t city, std::size_t template_index);

/// Canonical fold order: region-major, then city index.
bool digest_order(const CityDigest& a, const CityDigest& b);

/// One region's slice of the country aggregates.
struct RegionMetrics : city::FleetTotals {
  std::string name;
  std::size_t cities = 0;
};

/// The country-wide fold: the city count, the totals and one slice per
/// region. Construct with the region names, then add() every CityDigest in
/// canonical order (digest_order; the runner sorts).
class CountryMetrics : public city::FleetFold {
 public:
  explicit CountryMetrics(std::vector<std::string> region_names);
  CountryMetrics() = default;

  /// Folds one city. Digests must arrive in strictly increasing canonical
  /// order — the guard that keeps every caller on the deterministic fold.
  void add(const CityDigest& digest);

  std::size_t cities() const { return cities_; }

  /// One slice per region, in CountryConfig::regions order.
  const std::vector<RegionMetrics>& per_region() const { return per_region_; }

 private:
  std::size_t cities_ = 0;
  std::vector<RegionMetrics> per_region_;
  bool any_added_ = false;
  std::uint64_t last_key_ = 0;
};

}  // namespace insomnia::country
