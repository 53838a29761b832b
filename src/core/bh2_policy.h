// Runtime integration of Broadband Hitch-Hiking. Each terminal runs the
// distributed §3.1 algorithm every decision period (with a random offset to
// avoid synchronisation); new flows follow the current assignment while
// existing flows finish where they started. Returning home keeps traffic on
// the remote gateway until the home finishes waking (§5.1).
#pragma once

#include <cstdint>
#include <vector>

#include "bh2/algorithm.h"
#include "core/runtime.h"

namespace insomnia::core {

/// BH2 user policy over the shared runtime. The gateway observer is backed
/// by the simulator's ground truth (equivalent to an ideal SN-counting
/// estimator, §3.2).
/// It is the simulator's ordered-lane handler: each terminal's periodic
/// decision epoch re-arms on the lane tagged with the client index.
class Bh2Policy : public Policy, private sim::OrderedHandler {
 public:
  /// `backup` overrides the scenario's bh2.backup (Fig. 7/9 compare 0 / 1).
  /// `threshold_jitter` > 0 scales each terminal's low/high load thresholds
  /// by an independent factor drawn uniformly from [1 - j, 1 + j] at start —
  /// the beyond-paper "bh2-jitter" scheme, which desynchronises herd
  /// reactions around a shared threshold. 0 (the paper's setting) draws
  /// nothing and keeps the historical RNG stream bit-identical.
  Bh2Policy(int backup, double threshold_jitter = 0.0);

  void start(AccessRuntime& runtime) override;
  int route_flow(AccessRuntime& runtime, int client, double bytes) override;
  void on_gateway_active(AccessRuntime& runtime, int gateway) override;

  /// Current gateway assignment of a client (tests/inspection).
  int assignment(int client) const { return assignment_.at(static_cast<std::size_t>(client)); }

 private:
  /// Observer over the runtime's ground truth.
  class RuntimeObserver : public bh2::GatewayObserver {
   public:
    explicit RuntimeObserver(AccessRuntime& runtime) : runtime_(&runtime) {}
    double load(int gateway) const override { return runtime_->gateway_load(gateway); }
    bool is_awake(int gateway) const override { return runtime_->gateway_active(gateway); }

   private:
    AccessRuntime* runtime_;
  };

  /// sim::OrderedHandler: a lane epoch, tagged with its client.
  void on_ordered(std::uint64_t tag) override {
    decision_epoch(*runtime_, static_cast<int>(tag));
  }

  /// Periodic decision for one client; reschedules itself until the trace
  /// horizon.
  void decision_epoch(AccessRuntime& runtime, int client);

  /// Applies a §3.1 decision.
  void apply(AccessRuntime& runtime, int client, const bh2::Decision& decision);

  /// The thresholds this terminal decides with: the shared config, or its
  /// jittered copy when threshold_jitter > 0.
  const bh2::Bh2Config& config_for(int client) const {
    return client_config_.empty() ? config_
                                  : client_config_[static_cast<std::size_t>(client)];
  }

  AccessRuntime* runtime_ = nullptr;  ///< bound in start()
  bh2::Bh2Config config_;
  int backup_;
  double threshold_jitter_;
  std::vector<bh2::Bh2Config> client_config_;  ///< empty unless jittered
  std::vector<int> assignment_;      ///< gateway carrying new traffic
  std::vector<bool> pending_home_;   ///< waiting for home to finish waking
};

}  // namespace insomnia::core
