#include "core/bh2_policy.h"

#include <cmath>

#include "util/error.h"

namespace insomnia::core {

Bh2Policy::Bh2Policy(int backup, double threshold_jitter)
    : backup_(backup), threshold_jitter_(threshold_jitter) {
  util::require(backup >= 0, "backup count must be non-negative");
  util::require(threshold_jitter >= 0.0 && threshold_jitter < 1.0,
                "threshold jitter must be in [0, 1)");
}

void Bh2Policy::start(AccessRuntime& runtime) {
  const double period = runtime.scenario().bh2.decision_period;
  // A zero period would re-arm every epoch at the same instant forever.
  util::require(std::isfinite(period) && period > 0.0,
                "bh2.decision_period must be finite and positive");
  runtime_ = &runtime;
  runtime.simulator().set_ordered_handler(this);
  config_ = runtime.scenario().bh2;
  config_.backup = backup_;
  const int clients = runtime.scenario().client_count;
  assignment_.resize(static_cast<std::size_t>(clients));
  pending_home_.assign(static_cast<std::size_t>(clients), false);
  if (threshold_jitter_ > 0.0) {
    client_config_.assign(static_cast<std::size_t>(clients), config_);
  }
  for (int c = 0; c < clients; ++c) {
    assignment_[static_cast<std::size_t>(c)] =
        runtime.topology().home_gateway[static_cast<std::size_t>(c)];
    // Random offset desynchronises the terminals (§3.1).
    const double offset = runtime.rng().uniform(0.0, config_.decision_period);
    runtime.simulator().at(offset, [this, c] { decision_epoch(*runtime_, c); });
    if (threshold_jitter_ > 0.0) {
      // One factor scales both thresholds, preserving the hysteresis band.
      const double factor =
          runtime.rng().uniform(1.0 - threshold_jitter_, 1.0 + threshold_jitter_);
      auto& mine = client_config_[static_cast<std::size_t>(c)];
      mine.low_threshold *= factor;
      mine.high_threshold *= factor;
    }
  }
}

void Bh2Policy::decision_epoch(AccessRuntime& runtime, int client) {
  const int home = runtime.topology().home_gateway[static_cast<std::size_t>(client)];
  auto& current = assignment_[static_cast<std::size_t>(client)];
  RuntimeObserver observer(runtime);

  if (pending_home_[static_cast<std::size_t>(client)]) {
    // Waiting for the home gateway to finish waking; traffic keeps flowing
    // through the current remote until then (§5.1).
    if (runtime.gateway_active(home)) {
      current = home;
      pending_home_[static_cast<std::size_t>(client)] = false;
    }
  } else {
    const auto& reachable = runtime.topology().client_gateways[static_cast<std::size_t>(client)];
    const double own_share = runtime.network().client_throughput_at(client, current) /
                             runtime.scenario().backhaul_bps;
    const bh2::Decision decision = bh2::decide(home, reachable, current, observer,
                                               config_for(client), runtime.rng(), own_share);
    apply(runtime, client, decision);
  }

  if (runtime.simulator().now() < runtime.duration()) {
    // Every re-arm lands at now + period with now non-decreasing, so the
    // epochs arrive in time order and ride the simulator's ordered lane.
    runtime.simulator().after_ordered(config_.decision_period,
                                      static_cast<std::uint64_t>(client));
  }
}

void Bh2Policy::apply(AccessRuntime& runtime, int client, const bh2::Decision& decision) {
  const int home = runtime.topology().home_gateway[static_cast<std::size_t>(client)];
  auto& current = assignment_[static_cast<std::size_t>(client)];
  switch (decision.action) {
    case bh2::Action::kStay:
      break;
    case bh2::Action::kMoveTo:
      if (decision.target != current) {
        current = decision.target;
        runtime.count_bh2_move();
      }
      break;
    case bh2::Action::kReturnHome:
      runtime.count_bh2_home_return();
      if (runtime.gateway_active(home)) {
        current = home;
      } else if (runtime.live_flows(client).empty()) {
        // Nothing in flight: point the assignment home but leave the home
        // gateway asleep. If traffic appears, route_flow wakes it (or finds
        // a warm target) — waking it now would burn 60 s of power for idle.
        current = home;
      } else {
        // Wake the home gateway (only the owner knows its WoWLAN MAC);
        // keep routing through the current gateway until home is up.
        runtime.request_wake(home);
        pending_home_[static_cast<std::size_t>(client)] = true;
      }
      break;
  }
}

void Bh2Policy::on_gateway_active(AccessRuntime& runtime, int gateway) {
  for (int c = 0; c < static_cast<int>(assignment_.size()); ++c) {
    if (pending_home_[static_cast<std::size_t>(c)] &&
        runtime.topology().home_gateway[static_cast<std::size_t>(c)] == gateway) {
      assignment_[static_cast<std::size_t>(c)] = gateway;
      pending_home_[static_cast<std::size_t>(c)] = false;
    }
  }
}

int Bh2Policy::route_flow(AccessRuntime& runtime, int client, double /*bytes*/) {
  const int home = runtime.topology().home_gateway[static_cast<std::size_t>(client)];
  auto& current = assignment_[static_cast<std::size_t>(client)];

  if (runtime.gateway_active(current)) return current;

  // The assigned gateway cannot serve right now (asleep, or still waking).
  // With standing backup associations the terminal shifts its new traffic
  // to a warm gateway; without backups it must wake its home and wait.
  RuntimeObserver observer(runtime);
  const auto& reachable = runtime.topology().client_gateways[static_cast<std::size_t>(client)];
  const int target = bh2::reroute_on_wake_needed(home, reachable, current, observer,
                                                 config_for(client), runtime.rng());
  if (target >= 0) {
    if (target != current) runtime.count_bh2_move();
    current = target;
    pending_home_[static_cast<std::size_t>(client)] = false;
    return current;
  }

  // No alternative: fall back to the home gateway, waking it if needed.
  if (runtime.gateway_state(home) == GatewayState::kAsleep) runtime.request_wake(home);
  if (current != home) {
    // The remote died while we were on it; traffic must queue at home.
    current = home;
    pending_home_[static_cast<std::size_t>(client)] = false;
    runtime.count_bh2_home_return();
  }
  return current;
}

}  // namespace insomnia::core
