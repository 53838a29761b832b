// Streaming aggregates over a fleet of simulated neighbourhoods. Each
// neighbourhood contributes a handful of scalars (no day series), so a fleet
// stays in bounded memory no matter how many tens of thousands of gateways
// it holds. Every fleet aggregate — a city, one preset's slice of it, a
// country's city digest, a region, the country — is a FleetTotals: the same
// sums, the same derived readings. Folding is plain left-to-right addition:
// add() called in neighbourhood-index order is exactly the serial
// accumulation, which is what keeps a fold bit-identical however the
// neighbourhoods were scheduled.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "stats/summary.h"

namespace insomnia::city {

/// Everything one simulated neighbourhood contributes to the aggregates.
struct NeighbourhoodOutcome {
  std::size_t mix_index = 0;  ///< which mix component it was drawn from
  int gateways = 0;
  int clients = 0;
  double duration = 0.0;  ///< simulated day length, seconds

  // Whole-day energy integrals (J), paired baseline vs scheme.
  double baseline_user_energy = 0.0;
  double baseline_isp_energy = 0.0;
  double scheme_user_energy = 0.0;
  double scheme_isp_energy = 0.0;

  double peak_online_gateways = 0.0;  ///< mean over the city peak window
  long wake_events = 0;

  /// Fractional energy savings of the scheme vs the paired baseline.
  double savings_fraction() const;
};

/// The one fleet aggregate. The watt fields are sums of per-neighbourhood
/// mean draws (day energy over day length): what the ISP's meter over the
/// fleet would read. The user/ISP components are the exact accumulators, so
/// a roll-up merges them without re-deriving (and re-rounding) a split.
struct FleetTotals {
  std::size_t neighbourhoods = 0;
  long gateways = 0;
  long clients = 0;

  double baseline_watts = 0.0;
  double scheme_watts = 0.0;
  double baseline_user_watts = 0.0;
  double baseline_isp_watts = 0.0;
  double saved_user_watts = 0.0;
  double saved_isp_watts = 0.0;

  double peak_online_gateways = 0.0;  ///< summed peak-window means
  long wake_events = 0;

  /// Unweighted across-neighbourhood savings distribution.
  stats::RunningStats savings;

  /// Folds one neighbourhood (its duration must be positive).
  void add(const NeighbourhoodOutcome& outcome);
  /// Folds a whole aggregate: every sum adds, the distributions merge.
  void merge(const FleetTotals& other);

  /// Energy-weighted fractional savings (0 when empty).
  double savings_fraction() const;
  /// Share of the saved energy on the ISP side, in [0,1]; 0 when the fleet
  /// saved (essentially) nothing.
  double isp_share_of_savings() const;
  /// Baseline per-subscriber draws (W per gateway household), for grounding
  /// the §5.4 world extrapolation in the simulated fleet.
  double baseline_household_watts_per_gateway() const;
  double baseline_isp_watts_per_gateway() const;
  /// Student-t 95 % confidence half-width of the savings distribution (0
  /// with < 2 neighbourhoods). The t critical value matters here: a slice
  /// can hold only a handful of neighbourhoods, where z = 1.96 understates.
  double savings_ci95_halfwidth() const;
};

/// Per-mix-component slice of a city.
struct PresetAggregate : FleetTotals {
  std::string preset;  ///< mix component's preset name
};

/// Read-only view of a fold's running totals, under the accessor names the
/// drivers and reports read. CityMetrics and the country fold build on it.
class FleetFold {
 public:
  const FleetTotals& totals() const { return totals_; }

  std::size_t neighbourhoods() const { return totals_.neighbourhoods; }
  long total_gateways() const { return totals_.gateways; }
  long total_clients() const { return totals_.clients; }
  double baseline_watts() const { return totals_.baseline_watts; }
  double scheme_watts() const { return totals_.scheme_watts; }
  double peak_online_gateways() const { return totals_.peak_online_gateways; }
  long wake_events() const { return totals_.wake_events; }
  const stats::RunningStats& neighbourhood_savings() const { return totals_.savings; }

  double savings_fraction() const { return totals_.savings_fraction(); }
  double isp_share_of_savings() const { return totals_.isp_share_of_savings(); }
  double baseline_household_watts_per_gateway() const {
    return totals_.baseline_household_watts_per_gateway();
  }
  double baseline_isp_watts_per_gateway() const {
    return totals_.baseline_isp_watts_per_gateway();
  }
  double savings_ci95_halfwidth() const { return totals_.savings_ci95_halfwidth(); }

 protected:
  FleetTotals totals_;
};

/// The city-wide fold: the totals plus one slice per mix component.
/// Construct with the mix's preset names, then add() every
/// NeighbourhoodOutcome in index order.
class CityMetrics : public FleetFold {
 public:
  explicit CityMetrics(std::vector<std::string> preset_names);

  /// Folds one neighbourhood into the aggregates. `outcome.mix_index` must
  /// address one of the constructor's preset names.
  void add(const NeighbourhoodOutcome& outcome);

  /// One slice per mix component, in mix order.
  const std::vector<PresetAggregate>& per_preset() const { return per_preset_; }

 private:
  std::vector<PresetAggregate> per_preset_;
};

}  // namespace insomnia::city
