// Power models for every device class in the access network, with the
// paper's measured defaults (§5.1 "Power consumption"):
//   * Telsey CPVA642WA ADSL gateway: ~9 W, flat across utilization,
//   * Netgear WNR3500L wireless router: ~5 W (reference measurement),
//   * DSLAM (Alcatel ISAM 7302): shelf 21 W typical / 53 W max,
//   * DSL line card (48-port NVLT-C): 98 W typical / 112 W max,
//   * per-port ISP modem: ~1 W.
// Devices are not energy proportional: consumption depends on the power
// state, not the load — which is precisely the paper's premise.
#pragma once

namespace insomnia::power {

/// Sleep / wake lifecycle of a sleepable device.
enum class PowerState {
  kAsleep,  ///< powered off via Sleep-on-Idle
  kWaking,  ///< booting/resynchronising: draws power, moves no traffic
  kActive,  ///< fully operational
};

/// Per-state power draw of one device, in watts.
struct DevicePowerModel {
  double active_watts = 0.0;
  double waking_watts = 0.0;   ///< boot/resync draw, typically = active
  double asleep_watts = 0.0;   ///< residual draw while sleeping (WoWLAN listener etc.)

  /// Draw in a given state.
  double watts(PowerState state) const;
};

/// Measured defaults used throughout the evaluation.
namespace defaults {

/// Integrated ADSL gateway (modem + AP + router), Telsey CPVA642WA.
DevicePowerModel gateway();

/// Wireless router alone, Netgear WNR3500L (reference measurement only).
DevicePowerModel wireless_router();

/// One DSLAM port's terminating modem.
DevicePowerModel isp_modem();

/// One DSL line card (shared circuitry, excluding per-port modems).
DevicePowerModel line_card();

/// DSLAM shelf (common equipment; never sleeps in any scheme).
DevicePowerModel shelf();

}  // namespace defaults

/// The full parameter set the energy accounting needs.
struct AccessPowerParams {
  DevicePowerModel gateway = defaults::gateway();
  DevicePowerModel isp_modem = defaults::isp_modem();
  DevicePowerModel line_card = defaults::line_card();
  DevicePowerModel shelf = defaults::shelf();
};

/// Total draw of the paper's §5.1 device inventory: `gateways` gateways, a
/// DSLAM with `line_cards` cards and `ports` modems, plus the shelf (821 W
/// for 40 gateways, 4 cards, 48 ports). Not the simulated baseline
/// (core::run_no_sleep_baseline), which powers 14 W households (gateway +
/// router) and only connected lines' modems: 1013 W on the same scenario.
double no_sleep_watts(const AccessPowerParams& params, int gateways, int line_cards, int ports);

}  // namespace insomnia::power
