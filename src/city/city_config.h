// City-scale fleet description: one ISP serving N heterogeneous
// neighbourhoods. The paper's §5.4 extrapolation multiplies a single fixed
// neighbourhood's savings by the world subscriber count; real access plants
// are heterogeneous (dense urban VDSL2 blocks next to sparse rural loops),
// so the city layer describes a *population* instead — a weighted mix of
// scenario presets plus per-neighbourhood jitter distributions, sampled
// deterministically so neighbourhood i is a pure function of (seed, i).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace insomnia::city {

/// Per-neighbourhood variation applied around a preset. Each knob is a
/// distribution parameter, drawn independently per neighbourhood from its
/// keyed substream:
///   * gateway_count_spread   — uniform fractional spread u ~ U(-s, s);
///                              gateways = round(preset * (1 + u)), min 2,
///   * client_density_spread  — same form on clients *per gateway*, so a
///                              bigger block also carries more subscribers,
///   * backhaul_sigma         — multiplicative log-normal factor with
///                              median 1 (sigma of the underlying normal)
///                              on the broadband downlink rate,
///   * diurnal_phase_spread   — uniform offset (seconds, ± spread) applied
///                              to the diurnal activity profile, modelling
///                              neighbourhoods whose days run early or late.
struct NeighbourhoodJitter {
  double gateway_count_spread = 0.0;   ///< in [0, 1)
  double client_density_spread = 0.0;  ///< in [0, 1)
  double backhaul_sigma = 0.0;         ///< >= 0
  double diurnal_phase_spread = 0.0;   ///< seconds, >= 0
};

/// One component of the city's population mix: a scenario preset name (from
/// core::scenario_presets()), its relative sampling weight, and the jitter
/// around it.
struct CityMixComponent {
  std::string preset;
  double weight = 1.0;  ///< relative sampling probability, > 0
  NeighbourhoodJitter jitter;
};

/// A whole city behind one ISP.
struct CityConfig {
  std::vector<CityMixComponent> mix;  ///< must be non-empty
  int neighbourhoods = 64;
  std::uint64_t seed = 42;
  /// Registered scheme name (core/scheme_registry.h) compared against the
  /// no-sleep baseline in every neighbourhood. Unknown names are rejected
  /// by simulate_neighbourhood with the list of valid schemes.
  std::string scheme = "bh2-kswitch";
  /// Peak window for the online-gateway aggregate (§5.2.5 default).
  double peak_start = 11.0 * 3600.0;
  double peak_end = 19.0 * 3600.0;
};

/// Structural validation: throws util::InvalidArgument on an empty mix,
/// non-positive weights, out-of-range jitter, a non-positive neighbourhood
/// count, or an empty/backwards peak window. Preset *names* are resolved —
/// and unknown ones rejected — by resolve_mix; caller-supplied populations
/// may use any labels.
void validate(const CityConfig& config);

}  // namespace insomnia::city
