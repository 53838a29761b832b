// Structural rules of the country portfolio description and the shape of
// the default country (the ≥1M-gateway §5.4 world run at full scale).
#include <limits>

#include <gtest/gtest.h>

#include "country/country_config.h"
#include "util/error.h"

namespace insomnia::country {
namespace {

CountryConfig minimal_country() {
  city::CityMixComponent component;
  component.preset = "paper-default";
  CityTemplate tmpl;
  tmpl.name = "only";
  tmpl.mix = {component};
  tmpl.neighbourhoods_min = 2;
  tmpl.neighbourhoods_max = 4;
  RegionConfig region;
  region.name = "r0";
  region.cities = 3;
  region.portfolio = {tmpl};
  CountryConfig config;
  config.regions = {region};
  return config;
}

TEST(CountryConfig, MinimalCountryValidates) {
  EXPECT_NO_THROW(validate(minimal_country()));
  EXPECT_EQ(total_city_shards(minimal_country()), 3u);
}

TEST(CountryConfig, StructuralRulesAreEnforced) {
  {
    CountryConfig config = minimal_country();
    config.regions.clear();
    EXPECT_THROW(validate(config), util::InvalidArgument);
  }
  {
    CountryConfig config = minimal_country();
    config.regions[0].cities = 0;
    EXPECT_THROW(validate(config), util::InvalidArgument);
  }
  {
    CountryConfig config = minimal_country();
    config.regions[0].portfolio.clear();
    EXPECT_THROW(validate(config), util::InvalidArgument);
  }
  {
    CountryConfig config = minimal_country();
    config.regions[0].portfolio[0].weight = 0.0;
    EXPECT_THROW(validate(config), util::InvalidArgument);
  }
  {
    CountryConfig config = minimal_country();
    config.regions[0].portfolio[0].neighbourhoods_min = 0;
    EXPECT_THROW(validate(config), util::InvalidArgument);
  }
  {
    CountryConfig config = minimal_country();
    config.regions[0].portfolio[0].neighbourhoods_min = 8;  // > max of 4
    EXPECT_THROW(validate(config), util::InvalidArgument);
  }
  {
    CountryConfig config = minimal_country();
    config.regions[0].portfolio[0].mix.clear();  // city::validate rules apply
    EXPECT_THROW(validate(config), util::InvalidArgument);
  }
  {
    CountryConfig config = minimal_country();
    config.peak_start = config.peak_end;
    EXPECT_THROW(validate(config), util::InvalidArgument);
  }
}

TEST(CountryConfig, DefaultCountryIsTheFullScalePortfolio) {
  const CountryConfig config = default_country();
  EXPECT_NO_THROW(validate(config));
  ASSERT_EQ(config.regions.size(), 4u);
  EXPECT_EQ(config.regions[0].name, "metro");
  EXPECT_EQ(config.regions[1].name, "suburban");
  EXPECT_EQ(config.regions[2].name, "rural");
  EXPECT_EQ(config.regions[3].name, "developing");
  EXPECT_EQ(total_city_shards(config), 620u);
  for (const RegionConfig& region : config.regions) {
    EXPECT_EQ(region.portfolio.size(), 2u) << region.name;
  }
}

TEST(CountryConfig, ScalingShrinksSizeButKeepsShape) {
  const CountryConfig full = default_country();
  const CountryConfig small = default_country(0.01, 0.1);
  EXPECT_NO_THROW(validate(small));
  ASSERT_EQ(small.regions.size(), full.regions.size());
  for (std::size_t r = 0; r < full.regions.size(); ++r) {
    EXPECT_EQ(small.regions[r].name, full.regions[r].name);
    EXPECT_GE(small.regions[r].cities, 1);
    EXPECT_LT(small.regions[r].cities, full.regions[r].cities);
    ASSERT_EQ(small.regions[r].portfolio.size(), full.regions[r].portfolio.size());
    for (std::size_t t = 0; t < full.regions[r].portfolio.size(); ++t) {
      const CityTemplate& big = full.regions[r].portfolio[t];
      const CityTemplate& tiny = small.regions[r].portfolio[t];
      EXPECT_EQ(tiny.name, big.name);
      EXPECT_EQ(tiny.mix.size(), big.mix.size());
      EXPECT_GE(tiny.neighbourhoods_min, 1);
      EXPECT_LE(tiny.neighbourhoods_min, tiny.neighbourhoods_max);
      EXPECT_LT(tiny.neighbourhoods_max, big.neighbourhoods_max);
    }
  }
  EXPECT_THROW(default_country(0.0), util::InvalidArgument);
  EXPECT_THROW(default_country(1.0, -1.0), util::InvalidArgument);
}

TEST(CountryConfig, HugeOrInfiniteScalesAreRefusedNotWrapped) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(default_country(inf), util::InvalidArgument);
  EXPECT_THROW(default_country(1.0, inf), util::InvalidArgument);
  EXPECT_THROW(default_country(std::numeric_limits<double>::quiet_NaN()),
               util::InvalidArgument);
  // 200 suburban cities x 3e7 is past INT_MAX; it used to wrap to a
  // plausible-looking count.
  EXPECT_THROW(default_country(3e7), util::InvalidArgument);
  EXPECT_THROW(default_country(1.0, 1e9), util::InvalidArgument);

  // The largest city scale whose counts all fit still builds, exactly.
  const double fits = std::numeric_limits<int>::max() / 200.0;
  const CountryConfig big = default_country(fits);
  EXPECT_EQ(big.regions[1].cities, std::numeric_limits<int>::max());
  EXPECT_GE(big.regions[0].cities, 1);
}

}  // namespace
}  // namespace insomnia::country
