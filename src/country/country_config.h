// Country-scale fleet description: a weighted portfolio of heterogeneous
// cities grouped into regions, layered over the city fleet simulator. The
// paper's §5.4 world figure (TWh/yr over 320M DSL subscribers) multiplied
// one measured neighbourhood by constants; the city layer replaced that
// with one simulated heterogeneous city; this layer simulates the whole
// portfolio — dense metro cores, suburban carpets, sparse rural stretches,
// and developing-world deployments — so the world numbers are a roll-up of
// ≥1M simulated gateways, not an extrapolation.
//
// Determinism contract: every (seed, region, city, neighbourhood) tuple is
// a pure function of the CountryConfig — city c of region r derives its
// whole identity (archetype draw, neighbourhood count, city seed) from
// sim::Random substreams keyed on (country seed, r, c), and the city layer
// keys each neighbourhood on (city seed, n). The final roll-up is therefore
// bit-identical at any thread count, process count, or checkpoint/resume
// split (asserted by tests/test_country_runner.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "city/city_config.h"

namespace insomnia::country {

/// One city archetype a region can instantiate: a preset mix with jitter
/// (exactly a CityConfig's mix) plus a uniform range for how many
/// neighbourhoods a city of this kind holds. Each city drawn from the
/// template gets its own neighbourhood count and its own keyed seed.
struct CityTemplate {
  std::string name;     ///< archetype label for tables/logs
  double weight = 1.0;  ///< relative draw probability within the region, > 0
  std::vector<city::CityMixComponent> mix;  ///< non-empty; preset names + jitter
  int neighbourhoods_min = 32;  ///< >= 1
  int neighbourhoods_max = 64;  ///< >= neighbourhoods_min
};

/// A named region: how many cities it holds and the weighted portfolio of
/// archetypes they are drawn from.
struct RegionConfig {
  std::string name;
  int cities = 1;  ///< >= 1
  std::vector<CityTemplate> portfolio;  ///< non-empty
};

/// The whole country behind one (or several federated) ISPs.
struct CountryConfig {
  std::string name = "country";
  std::vector<RegionConfig> regions;  ///< non-empty
  std::uint64_t seed = 42;
  /// Registered scheme name compared against the no-sleep baseline in every
  /// neighbourhood of every city.
  std::string scheme = "bh2-kswitch";
  /// Worker threads per process for sharding city shards; 0 = auto
  /// (INSOMNIA_THREADS or hardware concurrency). Bit-identical for any value.
  int threads = 0;
  /// Peak window for the online-gateway aggregate (§5.2.5 default).
  double peak_start = 11.0 * 3600.0;
  double peak_end = 19.0 * 3600.0;
};

/// Structural validation: throws util::InvalidArgument on an empty region
/// list, a region without cities or portfolio, non-positive template
/// weights, an empty or backwards neighbourhood range, an invalid embedded
/// mix (city::validate rules), or an empty/backwards peak window. Preset
/// names are resolved (and unknown ones rejected) by the runner.
void validate(const CountryConfig& config);

/// Total number of city shards (sum of region city counts) — the unit of
/// checkpointing and process fan-out.
std::size_t total_city_shards(const CountryConfig& config);

/// The default country: four regions (metro, suburban, rural, developing)
/// whose portfolios mix the built-in scenario presets — dense-urban VDSL2
/// cores, the §5.1 paper-default carpet, sparse-rural stretches, and the
/// developing-world preset (PAPERS.md "Designing Low Cost and Energy
/// Efficient Access Network for the Developing World") — sized so the
/// full-scale portfolio holds ≥1M gateways in expectation.
///
/// `city_scale` scales the number of cities per region and `neighbourhood_scale`
/// the per-template neighbourhood ranges (both floored at 1), so smokes and
/// tests can run the identical portfolio shape at a tiny fraction of the
/// cost: default_country(0.01, 0.1) is a minutes-long run, default_country()
/// is the multi-hour ≥1M-gateway world run. Throws util::InvalidArgument on
/// a factor that is not positive and finite, or on a scaled count above
/// INT_MAX.
CountryConfig default_country(double city_scale = 1.0, double neighbourhood_scale = 1.0);

}  // namespace insomnia::country
