// The idealised "Optimal" scheme of §5.1: every minute a centralized solver
// minimises the number of online gateways (Eq. 1) over the users' measured
// demands, migrates all flows with zero downtime, switches gateway states
// instantaneously, and repacks the DSLAM with a full switch. Infeasible in
// practice — it upper-bounds the attainable savings. When aggregate demand
// outgrows what the reachable gateways carry at q, the cover degrades: users
// the solver cannot place stay on a gateway they can reach, over its budget.
#pragma once

#include <vector>

#include "core/runtime.h"
#include "opt/gateway_cover.h"

namespace insomnia::core {

class OptimalPolicy : public Policy {
 public:
  void start(AccessRuntime& runtime) override;
  int route_flow(AccessRuntime& runtime, int client, double bytes) override;
  /// Gateways under central control never use the distributed SoI timer.
  bool sleep_on_idle() const override { return false; }

 private:
  /// Periodic central re-optimisation.
  void solve(AccessRuntime& runtime);

  /// Demand of each client over the last period (bits/s), floored for
  /// clients holding live flows.
  std::vector<double> measure_demands(AccessRuntime& runtime) const;

  /// Routes a client whose assigned gateway is not active: pick the least
  /// loaded reachable active gateway, or instant-wake the home gateway.
  int fallback_route(AccessRuntime& runtime, int client);

  std::vector<double> bytes_this_period_;
  std::vector<int> assignment_;  ///< -1 while a client has no demand
};

}  // namespace insomnia::core
