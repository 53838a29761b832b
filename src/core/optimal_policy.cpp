#include "core/optimal_policy.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace insomnia::core {

namespace {

/// Completes a cover the capacity-constrained greedy gave up on: aggregate
/// demand exceeds what the reachable gateways carry at q (a slow plant,
/// e.g. the 1 Mbps developing-world preset). Users the greedy placed keep
/// their gateways; each user it could not place joins the feasible gateway
/// with the most spare capacity, preferring one already open, and that
/// gateway stays on beyond its q budget. Demands are elastic, so its flows
/// just share a fuller backhaul.
void place_overflow(const opt::GatewayCoverProblem& problem,
                    opt::GatewayCoverSolution& solution) {
  std::vector<double> residual = problem.capacity;
  std::vector<bool> open(problem.capacity.size(), false);
  for (std::size_t u = 0; u < problem.users.size(); ++u) {
    const int g = solution.assignment[u];
    if (g < 0) continue;
    open[static_cast<std::size_t>(g)] = true;
    residual[static_cast<std::size_t>(g)] -= problem.users[u].demand;
  }
  for (std::size_t u = 0; u < problem.users.size(); ++u) {
    if (solution.assignment[u] >= 0 || problem.users[u].demand <= 0.0) continue;
    std::size_t best = problem.capacity.size();
    for (int g : problem.users[u].feasible) {
      const auto j = static_cast<std::size_t>(g);
      if (best == problem.capacity.size() || (open[j] && !open[best]) ||
          (open[j] == open[best] && residual[j] > residual[best])) {
        best = j;
      }
    }
    solution.assignment[u] = static_cast<int>(best);
    open[best] = true;
    residual[best] -= problem.users[u].demand;
  }
  solution.open.clear();
  for (std::size_t j = 0; j < open.size(); ++j) {
    if (open[j]) solution.open.push_back(static_cast<int>(j));
  }
}

}  // namespace

void OptimalPolicy::start(AccessRuntime& runtime) {
  const double period = runtime.scenario().optimal_period;
  util::require(std::isfinite(period) && period > 0.0,
                "optimal_period must be finite and positive");
  const int clients = runtime.scenario().client_count;
  bytes_this_period_.assign(static_cast<std::size_t>(clients), 0.0);
  assignment_.assign(static_cast<std::size_t>(clients), -1);
  runtime.simulator().at(period, [this, &runtime] { solve(runtime); });
}

std::vector<double> OptimalPolicy::measure_demands(AccessRuntime& runtime) const {
  const ScenarioConfig& scenario = runtime.scenario();
  const double period = scenario.optimal_period;
  std::vector<double> demands(bytes_this_period_.size(), 0.0);
  for (std::size_t c = 0; c < bytes_this_period_.size(); ++c) {
    double d = bytes_this_period_[c] * 8.0 / period;
    if (!runtime.live_flows(static_cast<int>(c)).empty()) {
      d = std::max(d, scenario.optimal_live_demand_bps);
    }
    // Demands are elastic; cap at what a gateway may carry (Eq. 1's q*c_j)
    // so a single heavy user never makes the cover infeasible.
    d = std::min(d, scenario.optimal_q * scenario.backhaul_bps);
    demands[c] = d;
  }
  return demands;
}

void OptimalPolicy::solve(AccessRuntime& runtime) {
  const ScenarioConfig& scenario = runtime.scenario();
  const std::vector<double> demands = measure_demands(runtime);

  opt::GatewayCoverProblem problem;
  problem.capacity.assign(static_cast<std::size_t>(scenario.gateway_count),
                          scenario.optimal_q * scenario.backhaul_bps);
  problem.users.resize(demands.size());
  for (std::size_t c = 0; c < demands.size(); ++c) {
    problem.users[c].demand = demands[c];
    if (demands[c] <= 0.0) continue;
    for (int g : runtime.topology().client_gateways[c]) {
      if (runtime.wireless_rate(static_cast<int>(c), g) >= demands[c]) {
        problem.users[c].feasible.push_back(g);
      }
    }
    util::require_state(!problem.users[c].feasible.empty(),
                        "active user with no feasible gateway");
  }

  opt::GatewayCoverSolution solution = opt::solve_greedy(problem);
  if (!solution.feasible) place_overflow(problem, solution);

  // Open first so migrations always target active gateways.
  for (int g : solution.open) runtime.force_active(g);

  for (std::size_t c = 0; c < demands.size(); ++c) {
    assignment_[c] = solution.assignment[c];
    if (assignment_[c] < 0) continue;
    // Zero-downtime migration of every live flow to the new assignment.
    for (flow::FlowId id : std::vector<flow::FlowId>(runtime.live_flows(static_cast<int>(c)))) {
      runtime.network().migrate_flow(id, assignment_[c],
                                     runtime.wireless_rate(static_cast<int>(c), assignment_[c]));
    }
  }

  // Everything outside the cover sleeps immediately.
  std::vector<bool> keep(static_cast<std::size_t>(scenario.gateway_count), false);
  for (int g : solution.open) keep[static_cast<std::size_t>(g)] = true;
  for (int g = 0; g < scenario.gateway_count; ++g) {
    if (!keep[static_cast<std::size_t>(g)] &&
        runtime.gateway_state(g) != GatewayState::kAsleep) {
      runtime.force_asleep(g);
    }
  }

  // ISP side: full-switch optimal packing, zero downtime (§5.1).
  runtime.repack_dslam();

  std::fill(bytes_this_period_.begin(), bytes_this_period_.end(), 0.0);
  if (runtime.simulator().now() < runtime.duration()) {
    runtime.simulator().after(scenario.optimal_period,
                              [this, &runtime] { solve(runtime); });
  }
}

int OptimalPolicy::fallback_route(AccessRuntime& runtime, int client) {
  const auto& reachable = runtime.topology().client_gateways[static_cast<std::size_t>(client)];
  int best = -1;
  double best_load = 2.0;
  for (int g : reachable) {
    if (!runtime.gateway_active(g)) continue;
    const double load = runtime.network().gateway_throughput(g) /
                        runtime.scenario().backhaul_bps;
    if (load < best_load) {
      best = g;
      best_load = load;
    }
  }
  if (best >= 0) return best;
  // Nothing reachable is on: the idealised controller powers the home
  // gateway instantly.
  const int home = runtime.topology().home_gateway[static_cast<std::size_t>(client)];
  runtime.force_active(home);
  return home;
}

int OptimalPolicy::route_flow(AccessRuntime& runtime, int client, double bytes) {
  bytes_this_period_[static_cast<std::size_t>(client)] += bytes;
  int target = assignment_[static_cast<std::size_t>(client)];
  if (target >= 0 && runtime.gateway_active(target)) return target;
  target = fallback_route(runtime, client);
  assignment_[static_cast<std::size_t>(client)] = target;
  return target;
}

}  // namespace insomnia::core
