// Flow-level ("fluid") model of the access network's data plane. Flows are
// elastic downloads; each is pinned to one gateway and served at its max-min
// fair share of that gateway's broadband backhaul, capped by the wireless
// rate between its client and the gateway. Gateways that are asleep or
// waking serve nothing — their flows stall and resume later, which is how
// the wake-up penalty enters flow completion times (Fig. 9a).
//
// Gateways are independent bottlenecks (a deliberate simplification: at the
// paper's <10 % utilization the client radio, shared across gateways by the
// FatVAP/THEMIS TDMA layer, is never the binding constraint).
//
// Production builds one engine, IncrementalFluidNetwork
// (flow/incremental_network.h): it water-fills lazily once per gateway per
// instant, keeps one 64-byte flow::FlowState record per live flow in
// per-gateway blocks, and publishes its next completion as a
// sim::EventStream head instead of scheduling simulator events. The
// interface stays abstract so tests can substitute the exact, eager
// reference engine (tests/support/reference_network.h) and hold the two
// bit-identical (tests/test_flow_differential.cpp,
// tests/test_flow_day_twin.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.h"

namespace insomnia::flow {

/// Identifies a flow across its lifetime. Callers supply ids (the scheme
/// runner uses the trace index) so completions can be matched across
/// schemes.
using FlowId = std::uint64_t;

/// A finished flow, reported to the network's CompletionSink.
struct CompletedFlow {
  FlowId id = 0;
  int client = 0;
  int gateway = 0;        ///< gateway that served the final byte
  double arrival_time = 0.0;
  double completion_time = 0.0;
  double bytes = 0.0;

  /// Flow completion time (seconds).
  double duration() const { return completion_time - arrival_time; }
};

/// Receives every finished flow from a FluidNetwork: the engine calls it
/// directly for each completion, with no closure in between.
class CompletionSink {
 public:
  virtual void on_flow_complete(const CompletedFlow& flow) = 0;

 protected:
  ~CompletionSink() = default;
};

/// The fluid data plane. All mutating calls advance internal progress to
/// the simulator's current time first, so rates may change arbitrarily often
/// without integration error.
class FluidNetwork {
 public:
  virtual ~FluidNetwork() = default;

  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  /// Routes every finished flow to `sink` (nullptr: nowhere). The sink must
  /// outlive the network's last event.
  void set_completion_sink(CompletionSink* sink) { sink_ = sink; }

  /// Starts a flow of `bytes` for `client` via `gateway`, throttled to at
  /// most `wireless_cap` bits/s over the air. Zero-byte flows complete
  /// immediately.
  virtual void add_flow(FlowId id, int client, int gateway, double bytes,
                        double wireless_cap) = 0;

  /// Moves a live flow to another gateway with a new wireless cap (used only
  /// by the idealised Optimal scheme; BH2 never migrates existing flows).
  /// No-op if the flow already completed.
  virtual void migrate_flow(FlowId id, int new_gateway, double new_wireless_cap) = 0;

  /// Marks gateway g as able (true) or unable (false) to move traffic.
  /// Sleeping and waking gateways are not serving.
  virtual void set_gateway_serving(int gateway, bool serving) = 0;

  virtual bool gateway_serving(int gateway) const = 0;

  /// Number of unfinished flows pinned to `gateway`.
  virtual int active_flow_count(int gateway) const = 0;

  /// Number of unfinished flows belonging to `client` at `gateway`.
  virtual int client_flow_count_at(int client, int gateway) const = 0;

  /// Instantaneous aggregate service rate (bits/s) of `client`'s flows at
  /// `gateway` — what a terminal knows as "my own share" of that gateway.
  virtual double client_throughput_at(int client, int gateway) const = 0;

  /// Total number of unfinished flows.
  virtual int total_active_flows() const = 0;

  /// Instantaneous aggregate service rate of `gateway`, bits/s.
  virtual double gateway_throughput(int gateway) const = 0;

  /// Bits served by `gateway` during [t0, t1] (exact integral).
  virtual double served_bits(int gateway, double t0, double t1) const = 0;

  /// Utilization of `gateway` over the trailing window [now-window, now]:
  /// served bits / (window * backhaul). This is what BH2 terminals estimate
  /// by counting 802.11 sequence numbers.
  virtual double load(int gateway, double window) const = 0;

  /// Time of last traffic activity at `gateway`: the later of the last flow
  /// arrival routed to it and the last instant it served bits. Drives SoI
  /// idle detection.
  virtual double last_activity(int gateway) const = 0;

  virtual int gateway_count() const = 0;

 protected:
  FluidNetwork() = default;

  /// Hands one finished flow to the bound sink, if any.
  void complete(const CompletedFlow& flow) {
    if (sink_ != nullptr) sink_->on_flow_complete(flow);
  }

  /// A flow with less than a millibit left is complete (physically
  /// meaningless, numerically decisive). Shared by both engines so the
  /// completion condition can never drift between them.
  static constexpr double kEpsilonBits = 1e-3;

  /// Completion events fire at least this far in the future (well above the
  /// double ulp at t ~ 1e5 s), so zero-progress event loops cannot form.
  static constexpr double kMinEventDelay = 1e-6;

 private:
  CompletionSink* sink_ = nullptr;
};

}  // namespace insomnia::flow
