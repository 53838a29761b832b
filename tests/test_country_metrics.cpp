// The streaming country fold: digests carry the city layer's exact
// accumulators, fold in canonical order (and only in canonical order), and
// the region slices partition the country totals exactly.
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "country/country_metrics.h"
#include "support/tiny_population.h"
#include "util/error.h"

namespace insomnia::country {
namespace {

city::CityMetrics tiny_city_metrics(std::uint64_t seed, int neighbourhoods = 2) {
  city::NeighbourhoodJitter jitter;
  jitter.gateway_count_spread = 0.2;
  jitter.client_density_spread = 0.2;
  city::CityConfig config;
  config.neighbourhoods = neighbourhoods;
  config.seed = seed;
  config.mix = {{"tiny-a", 1.0, jitter}};
  return city::fold_serially(config, {city::tiny_preset("tiny-a", 24, 6)});
}

TEST(CountryMetrics, DigestCarriesTheCityAccumulatorsExactly) {
  const city::CityMetrics metrics = tiny_city_metrics(11, 3);
  const CityDigest digest = digest_from_city(metrics, 1, 4, 0);

  EXPECT_EQ(digest.region, 1u);
  EXPECT_EQ(digest.city, 4u);
  EXPECT_EQ(digest.neighbourhoods, metrics.neighbourhoods());
  EXPECT_EQ(digest.gateways, metrics.total_gateways());
  EXPECT_EQ(digest.clients, metrics.total_clients());
  EXPECT_EQ(digest.baseline_watts, metrics.baseline_watts());
  EXPECT_EQ(digest.scheme_watts, metrics.scheme_watts());
  EXPECT_EQ(digest.baseline_user_watts, metrics.totals().baseline_user_watts);
  EXPECT_EQ(digest.baseline_isp_watts, metrics.totals().baseline_isp_watts);
  EXPECT_EQ(digest.saved_user_watts, metrics.totals().saved_user_watts);
  EXPECT_EQ(digest.saved_isp_watts, metrics.totals().saved_isp_watts);
  EXPECT_EQ(digest.peak_online_gateways, metrics.peak_online_gateways());
  EXPECT_EQ(digest.wake_events, metrics.wake_events());
  EXPECT_EQ(digest.savings.count(), metrics.neighbourhood_savings().count());
  EXPECT_EQ(digest.savings.mean(), metrics.neighbourhood_savings().mean());
  EXPECT_EQ(digest.savings_fraction(), metrics.savings_fraction());
}

TEST(CountryMetrics, FoldSumsDigestsAndRegionSlicesPartitionIt) {
  const CityDigest a = digest_from_city(tiny_city_metrics(1), 0, 0, 0);
  const CityDigest b = digest_from_city(tiny_city_metrics(2), 0, 1, 0);
  const CityDigest c = digest_from_city(tiny_city_metrics(3), 1, 0, 0);

  CountryMetrics metrics({"alpha", "beta"});
  metrics.add(a);
  metrics.add(b);
  metrics.add(c);

  EXPECT_EQ(metrics.cities(), 3u);
  EXPECT_EQ(metrics.neighbourhoods(),
            a.neighbourhoods + b.neighbourhoods + c.neighbourhoods);
  EXPECT_EQ(metrics.total_gateways(), a.gateways + b.gateways + c.gateways);
  EXPECT_EQ(metrics.total_clients(), a.clients + b.clients + c.clients);
  EXPECT_EQ(metrics.wake_events(), a.wake_events + b.wake_events + c.wake_events);
  // Serial fold in one fixed order: plain left-to-right sums, exactly.
  EXPECT_EQ(metrics.baseline_watts(),
            a.baseline_watts + b.baseline_watts + c.baseline_watts);
  EXPECT_EQ(metrics.scheme_watts(), a.scheme_watts + b.scheme_watts + c.scheme_watts);
  EXPECT_EQ(metrics.neighbourhood_savings().count(),
            a.savings.count() + b.savings.count() + c.savings.count());
  EXPECT_GT(metrics.savings_fraction(), 0.0);
  EXPECT_LT(metrics.savings_fraction(), 1.0);
  EXPECT_GE(metrics.isp_share_of_savings(), 0.0);
  EXPECT_LE(metrics.isp_share_of_savings(), 1.0);
  EXPECT_GT(metrics.savings_ci95_halfwidth(), 0.0);
  EXPECT_GT(metrics.baseline_household_watts_per_gateway(), 0.0);
  EXPECT_GT(metrics.baseline_isp_watts_per_gateway(), 0.0);

  ASSERT_EQ(metrics.per_region().size(), 2u);
  const RegionMetrics& alpha = metrics.per_region()[0];
  const RegionMetrics& beta = metrics.per_region()[1];
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_EQ(alpha.cities, 2u);
  EXPECT_EQ(beta.cities, 1u);
  EXPECT_EQ(alpha.gateways + beta.gateways, metrics.total_gateways());
  EXPECT_EQ(alpha.baseline_watts + beta.baseline_watts, metrics.baseline_watts());
  EXPECT_EQ(beta.baseline_watts, c.baseline_watts);
  EXPECT_EQ(beta.savings_fraction(), c.savings_fraction());
}

TEST(CountryMetrics, RegionSlicesPartitionTheUserIspSplit) {
  const CityDigest a = digest_from_city(tiny_city_metrics(4), 0, 0, 0);
  const CityDigest b = digest_from_city(tiny_city_metrics(5), 0, 1, 0);
  const CityDigest c = digest_from_city(tiny_city_metrics(6), 1, 0, 0);

  CountryMetrics metrics({"alpha", "beta"});
  metrics.add(a);
  metrics.add(b);
  metrics.add(c);

  const RegionMetrics& alpha = metrics.per_region()[0];
  const RegionMetrics& beta = metrics.per_region()[1];
  EXPECT_EQ(beta.baseline_user_watts, c.baseline_user_watts);
  EXPECT_EQ(beta.saved_isp_watts, c.saved_isp_watts);
  EXPECT_EQ(beta.isp_share_of_savings(), c.isp_share_of_savings());
  // Exact: alpha holds the first two cities, so each total is the same
  // left-to-right sum as alpha's plus beta's.
  const city::FleetTotals& totals = metrics.totals();
  EXPECT_EQ(alpha.baseline_user_watts + beta.baseline_user_watts, totals.baseline_user_watts);
  EXPECT_EQ(alpha.baseline_isp_watts + beta.baseline_isp_watts, totals.baseline_isp_watts);
  EXPECT_EQ(alpha.saved_user_watts + beta.saved_user_watts, totals.saved_user_watts);
  EXPECT_EQ(alpha.saved_isp_watts + beta.saved_isp_watts, totals.saved_isp_watts);
  EXPECT_EQ(alpha.clients + beta.clients, metrics.total_clients());
  EXPECT_EQ(alpha.peak_online_gateways + beta.peak_online_gateways,
            metrics.peak_online_gateways());
  EXPECT_GE(alpha.isp_share_of_savings(), 0.0);
  EXPECT_LE(alpha.isp_share_of_savings(), 1.0);
  EXPECT_GT(alpha.baseline_household_watts_per_gateway(), 0.0);
}

TEST(CountryMetrics, FoldRejectsNonCanonicalOrderAndBadDigests) {
  const CityDigest first = digest_from_city(tiny_city_metrics(1), 0, 1, 0);
  const CityDigest earlier = digest_from_city(tiny_city_metrics(2), 0, 0, 0);
  const CityDigest next_region = digest_from_city(tiny_city_metrics(3), 1, 0, 0);

  EXPECT_TRUE(digest_order(earlier, first));
  EXPECT_TRUE(digest_order(first, next_region));
  EXPECT_FALSE(digest_order(next_region, first));

  CountryMetrics metrics({"alpha", "beta"});
  metrics.add(first);
  EXPECT_THROW(metrics.add(earlier), util::InvalidArgument);  // out of order
  EXPECT_THROW(metrics.add(first), util::InvalidArgument);    // duplicate
  metrics.add(next_region);                                   // forward is fine

  CityDigest out_of_range = first;
  out_of_range.region = 7;
  CountryMetrics fresh({"alpha", "beta"});
  EXPECT_THROW(fresh.add(out_of_range), util::InvalidArgument);

  CityDigest empty = first;
  empty.neighbourhoods = 0;
  EXPECT_THROW(fresh.add(empty), util::InvalidArgument);
}

}  // namespace
}  // namespace insomnia::country
