// The exact, eager fluid-network engine: the test oracle that production's
// IncrementalFluidNetwork is checked against, flow by flow in
// tests/test_flow_differential.cpp and day by day in
// tests/test_flow_day_twin.cpp. Every mutating call re-waterfills its
// gateway immediately and each gateway owns its own completion event in the
// simulator heap. Correct and simple, and slower; it lives in the test
// support library, so no production target links it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flow/fluid_network.h"
#include "sim/simulator.h"
#include "stats/timeseries.h"

namespace insomnia::flow {

class ReferenceFluidNetwork final : public FluidNetwork {
 public:
  /// `backhaul_rates[g]` is gateway g's broadband speed in bits/s.
  ReferenceFluidNetwork(sim::Simulator& simulator, std::vector<double> backhaul_rates);
  ~ReferenceFluidNetwork() override;  ///< folds the local waterfill tally into obs

  void add_flow(FlowId id, int client, int gateway, double bytes, double wireless_cap) override;
  void migrate_flow(FlowId id, int new_gateway, double new_wireless_cap) override;
  void set_gateway_serving(int gateway, bool serving) override;
  bool gateway_serving(int gateway) const override;
  int active_flow_count(int gateway) const override;
  int client_flow_count_at(int client, int gateway) const override;
  double client_throughput_at(int client, int gateway) const override;
  int total_active_flows() const override { return live_flows_; }
  double gateway_throughput(int gateway) const override;
  double served_bits(int gateway, double t0, double t1) const override;
  double load(int gateway, double window) const override;
  double last_activity(int gateway) const override;
  int gateway_count() const override { return static_cast<int>(gateways_.size()); }

 private:
  struct FlowState {
    FlowId id = 0;
    int client = 0;
    int gateway = 0;
    double arrival_time = 0.0;
    double bytes = 0.0;
    double remaining_bits = 0.0;
    double wireless_cap = 0.0;
    double rate = 0.0;  ///< current service rate, bits/s
    bool done = false;
  };

  /// One live flow's wireless cap, kept in the gateway's ascending cap
  /// order. `seq` is the flow's per-gateway arrival stamp: it breaks cap
  /// ties FIFO, mirroring the order in which a full sort of the flow list
  /// would see them.
  struct SortedCap {
    double cap = 0.0;
    std::uint64_t seq = 0;
    std::size_t flow = 0;  ///< index into flows_
  };

  struct GatewayState {
    double backhaul = 0.0;
    bool serving = false;
    std::vector<std::size_t> flows;  ///< indices into flows_, arrival order
    std::vector<SortedCap> sorted;   ///< live caps ascending by (cap, seq)
    std::vector<std::size_t> finished;  ///< scratch reused by advance()
    std::uint64_t next_cap_seq = 0;
    sim::EventId completion_event = sim::kInvalidEventId;
    double next_completion = 0.0;  ///< scheduled completion-event time
    double last_progress = 0.0;    ///< time progress was last integrated
    double throughput = 0.0;       ///< current aggregate rate
    stats::StepSeries served;      ///< aggregate service rate over time
    double last_activity = 0.0;

    // Exact memo for load(): a repeat query at the same instant with the
    // same window and an unchanged series is a pure recomputation (BH2
    // probes several candidate gateways, many repeatedly, per decision).
    mutable double load_cache_time = -1.0;
    mutable double load_cache_window = 0.0;
    mutable std::size_t load_cache_changes = 0;
    mutable double load_cache_value = 0.0;

    GatewayState(double rate, double start)
        : backhaul(rate), last_progress(start), served(start, 0.0), last_activity(start) {}
  };

  GatewayState& gateway(int g);
  const GatewayState& gateway(int g) const;
  FlowState& flow_by_id(FlowId id);

  // --- FlowId -> flows_ index map ----------------------------------------
  // Dense ids (the trace replay uses the trace index) live in a flat
  // vector; an id far beyond the number of flows ever added would blow the
  // vector up (a sparse 10^12 id must not allocate gigabytes), so outliers
  // go to a hash map instead.
  static constexpr std::size_t kNoIndex = SIZE_MAX;
  std::size_t find_index(FlowId id) const;
  void store_index(FlowId id, std::size_t index);
  void erase_index(FlowId id);
  /// True when growing the dense vector to hold `id` stays proportionate to
  /// the number of flows actually seen.
  bool dense_id(FlowId id) const;

  /// Inserts `flow` into gw's cap order; `seq` is its tie-break stamp.
  void insert_sorted(GatewayState& gw, std::size_t flow, double cap, std::uint64_t seq);

  /// Removes `flow` from gw's cap order and returns its tie-break stamp.
  std::uint64_t remove_sorted(GatewayState& gw, std::size_t flow);

  /// Integrates progress at `gateway` up to now and completes finished flows.
  void advance(int gateway);

  /// Recomputes rates at `gateway` and (re)schedules its completion event.
  void reallocate(int gateway);

  sim::Simulator* simulator_;
  std::vector<GatewayState> gateways_;
  std::vector<FlowState> flows_;                       // all flows ever added
  std::vector<std::size_t> id_to_index_;               // dense FlowId -> flows_ index
  std::unordered_map<FlowId, std::size_t> id_overflow_;  // sparse outlier ids
  int live_flows_ = 0;
  /// Reallocations performed, accumulated locally (reallocate is hot) and
  /// folded into the "flow.waterfills" counter once, at destruction.
  std::uint64_t waterfills_ = 0;
};

}  // namespace insomnia::flow
