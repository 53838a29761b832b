#include "country/country_metrics.h"

#include <utility>

#include "util/error.h"

namespace insomnia::country {

namespace {

std::uint64_t shard_key(std::uint32_t region, std::uint32_t city) {
  return (static_cast<std::uint64_t>(region) << 32) | city;
}

}  // namespace

CityDigest digest_from_city(const city::CityMetrics& metrics, std::uint32_t region,
                            std::uint32_t city, std::size_t template_index) {
  CityDigest digest;
  static_cast<city::FleetTotals&>(digest) = metrics.totals();
  digest.region = region;
  digest.city = city;
  digest.template_index = template_index;
  return digest;
}

bool digest_order(const CityDigest& a, const CityDigest& b) {
  return shard_key(a.region, a.city) < shard_key(b.region, b.city);
}

CountryMetrics::CountryMetrics(std::vector<std::string> region_names) {
  per_region_.reserve(region_names.size());
  for (std::string& name : region_names) {
    RegionMetrics region;
    region.name = std::move(name);
    per_region_.push_back(std::move(region));
  }
}

void CountryMetrics::add(const CityDigest& digest) {
  util::require(digest.region < per_region_.size(),
                "city digest region index out of range for this country");
  util::require(digest.neighbourhoods > 0, "city digest must hold neighbourhoods");
  const std::uint64_t key = shard_key(digest.region, digest.city);
  util::require(!any_added_ || key > last_key_,
                "city digests must fold in canonical (region, city) order");
  any_added_ = true;
  last_key_ = key;

  ++cities_;
  totals_.merge(digest);
  RegionMetrics& region = per_region_[digest.region];
  ++region.cities;
  region.merge(digest);
}

}  // namespace insomnia::country
