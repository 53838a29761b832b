#include "bh2/algorithm.h"

#include <algorithm>

#include "util/error.h"

namespace insomnia::bh2 {

bool is_valid_target(int gateway, const GatewayObserver& observer, const Bh2Config& config) {
  if (!observer.is_awake(gateway)) return false;
  const double load = observer.load(gateway);
  if (load >= config.high_threshold * config.join_headroom) return false;
  // "Not a candidate for going to sleep": carrying traffic already.
  return load >= config.low_threshold || load > config.sleep_candidate_load;
}

namespace {

// Decisions run once per terminal per epoch, so their scratch lists are
// function-local thread_local buffers, cleared and refilled on every call:
// warm after the first decisions, they never allocate again. Each buffer is
// read only before the next call of the function that fills it.

/// Collects valid aggregation targets among `reachable`, excluding `skip`.
/// The list lives in a buffer the next call overwrites.
const std::vector<int>& collect_targets(const std::vector<int>& reachable, int skip,
                                        const GatewayObserver& observer,
                                        const Bh2Config& config) {
  thread_local std::vector<int> targets;
  targets.clear();
  for (int gateway : reachable) {
    if (gateway == skip) continue;
    if (is_valid_target(gateway, observer, config)) targets.push_back(gateway);
  }
  return targets;
}

/// Counts the standby gateways available to a terminal currently using
/// `current`: awake in-range gateways (any load — a standby association
/// works regardless of the target's traffic) plus the home gateway, which
/// is always available because the terminal can wake it on demand via
/// WoWLAN (§3.2: "users can only wake their own home gateway"). Counting
/// home this way is what makes one backup free in practice — exactly the
/// paper's observation that "using a backup does not penalize performance".
int standby_count(const std::vector<int>& reachable, int current, int home,
                  const GatewayObserver& observer) {
  int count = 0;
  for (int gateway : reachable) {
    if (gateway == current) continue;
    if (gateway == home || observer.is_awake(gateway)) ++count;
  }
  return count;
}

/// Draws one gateway with probability proportional to (load + epsilon)^2 —
/// the paper's randomised load-proportional selection, sharpened so that a
/// clearly warmer hub wins decisively. (With linear weights and all loads
/// far below the thresholds, the neighbourhood settles into many lukewarm
/// hubs instead of consolidating; squaring restores winner-take-most while
/// keeping the desynchronising randomness.)
int pick_proportional(const std::vector<int>& candidates, const GatewayObserver& observer,
                      const Bh2Config& config, sim::Random& rng) {
  util::require(!candidates.empty(), "cannot pick from zero candidates");
  thread_local std::vector<double> weights;
  weights.clear();
  for (int gateway : candidates) {
    const double w = observer.load(gateway) + config.selection_epsilon;
    weights.push_back(w * w);
  }
  return candidates[rng.weighted_index(weights)];
}

/// Draws one gateway with probability proportional to its remaining
/// headroom — used when escaping an overloaded gateway, where piling onto
/// the warmest target would recreate the overload.
int pick_headroom(const std::vector<int>& candidates, const GatewayObserver& observer,
                  const Bh2Config& config, sim::Random& rng) {
  util::require(!candidates.empty(), "cannot pick from zero candidates");
  const double ceiling = config.high_threshold * config.join_headroom;
  thread_local std::vector<double> weights;
  weights.clear();
  for (int gateway : candidates) {
    weights.push_back(std::max(ceiling - observer.load(gateway), 0.0) +
                      config.selection_epsilon);
  }
  return candidates[rng.weighted_index(weights)];
}

}  // namespace

Decision decide(int home, const std::vector<int>& reachable, int current,
                const GatewayObserver& observer, const Bh2Config& config, sim::Random& rng,
                double own_share) {
  util::require(std::find(reachable.begin(), reachable.end(), current) != reachable.end() ||
                    current == home,
                "current gateway must be home or reachable");

  if (current == home) {
    // Case 1: connected to the home gateway. If the home is busy enough to
    // stay up anyway, there is nothing to gain by moving.
    if (observer.is_awake(home) && observer.load(home) >= config.low_threshold) {
      return {Action::kStay, current};
    }
    // Home is idle-ish (a sleep candidate): try to vacate so SoI can fire.
    // The move needs one valid primary target, and enough standby gateways
    // (home itself counts — it can be woken back on demand).
    const std::vector<int>& targets = collect_targets(reachable, home, observer, config);
    if (!targets.empty()) {
      const int primary = pick_proportional(targets, observer, config, rng);
      if (standby_count(reachable, primary, home, observer) >= config.backup) {
        return {Action::kMoveTo, primary};
      }
    }
    return {Action::kStay, current};
  }

  // Case 2: connected to a remote gateway.
  if (!observer.is_awake(current)) {
    return {Action::kReturnHome, home};
  }
  if (observer.load(current) - own_share >= config.high_threshold) {
    // Overloaded by *other* users: this is what the backup associations are
    // for — a smooth hand-off to another gateway ("to allow users to
    // perform smooth hand-offs if they need to leave the remote gateway",
    // §3.1). Any awake, not-yet-full gateway will do as an escape (waking a
    // home would cost more than joining a cold-but-powered neighbour);
    // only when none exists does the user retreat to its home gateway.
    thread_local std::vector<int> escape;
    escape.clear();
    for (int gateway : reachable) {
      if (gateway == current || !observer.is_awake(gateway)) continue;
      if (observer.load(gateway) < config.high_threshold * config.join_headroom) {
        escape.push_back(gateway);
      }
    }
    if (!escape.empty()) {
      return {Action::kMoveTo, pick_headroom(escape, observer, config, rng)};
    }
    return {Action::kReturnHome, home};
  }
  if (standby_count(reachable, current, home, observer) < config.backup) {
    // Not enough standby gateways for a smooth hand-off: retreat to home.
    return {Action::kReturnHome, home};
  }
  if (observer.load(current) < config.low_threshold) {
    // The remote itself is dying down: re-select among the warm candidates,
    // proportional to load. The current gateway is deliberately *not* in
    // the pool — guests must evaporate off cold aggregation points or they
    // linger forever at near-zero load (the whole hub never drains).
    const std::vector<int>& others = collect_targets(reachable, current, observer, config);
    if (!others.empty()) {
      const int choice = pick_proportional(others, observer, config, rng);
      if (choice != current) return {Action::kMoveTo, choice};
    }
  }
  return {Action::kStay, current};
}

int reroute_on_wake_needed(int /*home*/, const std::vector<int>& reachable, int current,
                           const GatewayObserver& observer, const Bh2Config& config,
                           sim::Random& rng) {
  if (config.backup <= 0) return -1;  // no standing backup associations
  const std::vector<int>& targets = collect_targets(reachable, current, observer, config);
  if (targets.empty()) return -1;
  return pick_proportional(targets, observer, config, rng);
}

}  // namespace insomnia::bh2
