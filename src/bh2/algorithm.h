// The Broadband Hitch-Hiking (BH2) terminal algorithm of §3.1. Pure
// decision logic: terminals sense gateway state through a GatewayObserver
// (over the air by SN counting, §3.2; in the evaluation by the simulator's
// ground truth), and emit decisions the runtime executes. Keeping the
// policy stateless makes every branch unit-testable.
//
// Faithfulness notes (also in DESIGN.md):
//  * The paper gates candidate gateways on "load above the low threshold"
//    (not about to sleep). Read literally this deadlocks at night when every
//    gateway's load is ~0 and nobody could ever aggregate. We interpret
//    "candidate for going to sleep" as "carrying no traffic at all": a
//    gateway is a valid target when it is awake, below the high threshold
//    and either above the low threshold or observably hosting traffic.
//  * Selection among candidates is random, proportional to load (plus a
//    small epsilon so freshly-aggregated gateways can be chosen), exactly
//    the paper's desynchronisation device.
#pragma once

#include <vector>

#include "sim/random.h"

namespace insomnia::bh2 {

/// Tunables of §5.1: thresholds, cadence, backups.
struct Bh2Config {
  double low_threshold = 0.10;   ///< fraction of backhaul capacity
  double high_threshold = 0.50;  ///< max utilization protecting local QoS
  double decision_period = 150.0;  ///< seconds between decisions (±offset)
  double load_window = 60.0;       ///< load estimation window, seconds
  int backup = 1;                  ///< minimum backup gateways for hand-off
  /// Added to every candidate's load when drawing proportionally, so
  /// zero-load candidates remain selectable (bootstrap).
  double selection_epsilon = 1e-3;
  /// A gateway with load below this carries no traffic and is treated as a
  /// sleep candidate (see faithfulness note above).
  double sleep_candidate_load = 1e-6;
  /// Join headroom: a gateway only qualifies as a *target* while its load
  /// is below high_threshold * join_headroom. Eviction (return home) still
  /// triggers at the full high threshold; the gap between the two is the
  /// hysteresis that prevents join-overshoot/evict herds around the
  /// threshold ("not heavily loaded" in §3.1).
  double join_headroom = 0.8;
};

/// What a BH2 terminal can sense about a gateway, over the air.
class GatewayObserver {
 public:
  virtual ~GatewayObserver() = default;

  /// Estimated backhaul utilization over the trailing load window, in
  /// [0, 1]. (Real terminals derive this by counting 802.11 MAC sequence
  /// numbers; the simulator supplies ground truth.)
  virtual double load(int gateway) const = 0;

  /// True if the gateway is powered and beaconing (awake or still waking).
  virtual bool is_awake(int gateway) const = 0;
};

/// What the terminal should do at this decision epoch.
enum class Action {
  kStay,        ///< keep the current assignment
  kMoveTo,      ///< route new traffic via `target`
  kReturnHome,  ///< go back to the home gateway (waking it if needed)
};

/// A decision plus its target (valid for kMoveTo only).
struct Decision {
  Action action = Action::kStay;
  int target = -1;
};

/// Periodic decision for one terminal (§3.1, both cases).
///
/// `reachable` lists the gateways in range (home included); `current` is
/// the gateway presently carrying the terminal's new traffic. `own_share`
/// is the fraction of `current`'s backhaul consumed by this terminal's own
/// traffic (a terminal always knows its own throughput): overload eviction
/// triggers on *other* users' load, because leaving cannot migrate the
/// terminal's existing flows anyway.
Decision decide(int home, const std::vector<int>& reachable, int current,
                const GatewayObserver& observer, const Bh2Config& config, sim::Random& rng,
                double own_share = 0.0);

/// Event-driven assist: traffic arrived while `current` is asleep. With
/// backups, the terminal shifts to a valid target without waking anything;
/// otherwise it must wake its home gateway. Returns the gateway to route
/// through, or -1 meaning "wake home and wait".
int reroute_on_wake_needed(int home, const std::vector<int>& reachable, int current,
                           const GatewayObserver& observer, const Bh2Config& config,
                           sim::Random& rng);

/// True if `gateway` qualifies as an aggregation target for this terminal.
bool is_valid_target(int gateway, const GatewayObserver& observer, const Bh2Config& config);

}  // namespace insomnia::bh2
