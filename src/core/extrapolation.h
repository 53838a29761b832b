// The §5.4 back-of-the-envelope: extrapolating the measured savings to all
// DSL subscribers world-wide ("about 33 TWh per year, comparable to the
// output of 3 nuclear power plants").
#pragma once

namespace insomnia::core {

/// World-wide extrapolation inputs. Defaults follow the paper: >320 M DSL
/// subscribers (Point Topic Q3'10), a ~9 W integrated gateway per household,
/// per-subscriber ISP share from the §5.1 DSLAM (shelf + 4 cards + modems
/// over 48 ports), and the measured 66 % average savings.
struct WorldExtrapolationConfig {
  double dsl_subscribers = 320e6;
  double household_watts = 9.0;           ///< integrated gateway
  double isp_watts_per_subscriber = (21.0 + 4.0 * 98.0 + 48.0) / 48.0;
  double savings_fraction = 0.66;
};

/// Validates the extrapolation inputs: non-positive subscriber counts or
/// per-subscriber draws and savings fractions outside [0,1] throw
/// util::InvalidArgument — a nonsense TWh headline must be impossible to
/// produce silently. Every function below validates before computing.
void validate(const WorldExtrapolationConfig& config);

/// Total access-network draw covered by the model, in watts.
double world_access_watts(const WorldExtrapolationConfig& config);

/// Annual world-wide savings in TWh.
double annual_savings_twh(const WorldExtrapolationConfig& config);

/// Annual savings split into the user and ISP sides of the access network.
struct SavingsSplitTwh {
  double user_twh = 0.0;
  double isp_twh = 0.0;
  double total_twh() const { return user_twh + isp_twh; }
};

/// Splits annual_savings_twh by `isp_share` — the fraction of the saved
/// energy on the ISP side, as measured (the paper's ~1/3) or as simulated
/// (city::FleetTotals::isp_share_of_savings). Must be in [0,1].
SavingsSplitTwh annual_savings_split_twh(const WorldExtrapolationConfig& config,
                                         double isp_share);

/// Same savings expressed as equivalent ~1.3 GW-average nuclear plants
/// (the paper's "3 nuclear power plants in the US" comparison; a large US
/// plant produces ~10-11 TWh/yr).
double equivalent_nuclear_plants(const WorldExtrapolationConfig& config,
                                 double twh_per_plant_year = 11.0);

}  // namespace insomnia::core
