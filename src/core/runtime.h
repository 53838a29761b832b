// AccessRuntime drives one simulated day of one scheme: it owns the event
// clock, the fluid data plane, the per-gateway sleep state machines, the
// DSLAM + switching fabric, and the energy meters, and it replays the flow
// trace through a pluggable Policy. Policies pair with a DSLAM switch
// fabric in the string-keyed scheme registry (core/scheme_registry.h):
// the paper's eight §5.1 combinations are registered built-ins (no-sleep
// and SoI in core/home_policy.h, BH2 in core/bh2_policy.h, Optimal in
// core/optimal_policy.h), beyond-paper schemes (core/multilevel_policy.h,
// the jittered-threshold BH2 variant) sit next to them, and any new Policy
// implementation joins by registration — no enum or switch to edit.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/metrics.h"
#include "core/scenario.h"
#include "dslam/dslam.h"
#include "flow/fluid_network.h"
#include "power/energy_meter.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "topology/access_topology.h"
#include "trace/records.h"

namespace insomnia::core {

/// Gateway sleep lifecycle (user premises device + its DSLAM modem).
enum class GatewayState { kAsleep, kWaking, kActive };

class AccessRuntime;

/// A scheme's user-side behaviour. The runtime invokes the policy for every
/// routing decision and lifecycle event; the policy calls back into the
/// runtime to wake gateways, move traffic, and (for Optimal) force states.
class Policy {
 public:
  virtual ~Policy() = default;

  /// Called once at t=0 before the replay starts.
  virtual void start(AccessRuntime&) {}

  /// Picks the gateway that will carry a new flow of `bytes` for `client`
  /// (requesting wake-ups as a side effect). Must return a valid gateway.
  virtual int route_flow(AccessRuntime& runtime, int client, double bytes) = 0;

  /// Notification that `gateway` finished waking and now serves traffic.
  virtual void on_gateway_active(AccessRuntime&, int /*gateway*/) {}

  /// Notification that a flow finished.
  virtual void on_flow_complete(AccessRuntime&, const flow::CompletedFlow&) {}

  /// False disables Sleep-on-Idle entirely (the no-sleep baseline).
  virtual bool sleep_on_idle() const { return true; }
};

/// One simulated day. Construct over a trace, then call run() exactly once
/// — or, for the online controller, construct with LiveMode and drive the
/// incremental begin_live / append_live_arrivals / step_live / finish_live
/// sequence. The two are one path: a trace runtime is a live runtime whose
/// input is already appended and finished, and run() is that sequence over
/// the whole day. The data plane reports finished flows straight to the
/// runtime (it is the network's flow::CompletionSink).
class AccessRuntime final : private flow::CompletionSink {
 public:
  /// Builds the day's fluid data plane; `backhaul_rates[g]` is gateway g's
  /// broadband speed in bits/s.
  using NetworkFactory = std::unique_ptr<flow::FluidNetwork> (*)(
      sim::Simulator& simulator, std::vector<double> backhaul_rates);

  /// Borrows `flows` (it must outlive the runtime) as the day's appended,
  /// finished input. `make_network` is a test seam: null (the default)
  /// builds the production engine, flow::IncrementalFluidNetwork; the
  /// day-level engine twin suite substitutes the reference engine through it.
  AccessRuntime(const ScenarioConfig& scenario, const topo::AccessTopology& topology,
                const trace::FlowTrace& flows, Policy& policy, sim::Random rng,
                NetworkFactory make_network = nullptr);

  /// Incremental-replay mode (src/live/): the runtime owns a growing arrival
  /// buffer instead of borrowing a complete trace.
  struct LiveMode {
    /// With `gated` (virtual-time replay) the last buffered arrival is held
    /// back until its successor is appended or finish_live_input() promises
    /// there is none — the successor's FIFO rank is claimed while the head
    /// is processed, so this is what keeps event order bit-identical to an
    /// offline run() over the same records. Ungated (wall-clock mode) every
    /// buffered arrival dispatches immediately and late records are clamped
    /// to the current virtual time.
    bool gated = true;
  };
  AccessRuntime(const ScenarioConfig& scenario, const topo::AccessTopology& topology,
                Policy& policy, sim::Random rng, LiveMode mode);

  AccessRuntime(const AccessRuntime&) = delete;
  AccessRuntime& operator=(const AccessRuntime&) = delete;

  /// Replays the finished input over the day plus drain and returns the
  /// day's metrics: begin_live, step_live(duration + drain_time),
  /// finish_live(duration). Needs finished input, so a LiveMode runtime
  /// refuses it until finish_live_input().
  RunMetrics run();

  // --- incremental replay --------------------------------------------------

  /// Warm start, policy start, first arrival armed. Call once, after
  /// appending any records already on hand.
  void begin_live();

  /// Appends `count` records to the arrival buffer, copying each once into
  /// a ring that holds only the records not yet dispatched (the day's
  /// records never accumulate). Both modes enforce the row contract of
  /// trace::parse_flow_row (finite, non-negative start time and bytes) and
  /// a valid client range. Gated mode also requires sorted times; ungated
  /// mode instead clamps stale times forward to the current virtual time,
  /// so late events are decided now rather than rejected. A trace runtime's
  /// input is finished, so it refuses appends.
  void append_live_arrivals(const trace::FlowRecord* records, std::size_t count);

  /// Promises no further append_live_arrivals calls; opens the gate for the
  /// final buffered arrival.
  void finish_live_input();

  enum class StepResult {
    kReachedTime,   ///< the clock advanced to `until`
    kNeedArrival,   ///< gated: paused before the last buffered arrival
  };

  /// Advances virtual time to `until` (monotone across calls). kNeedArrival
  /// asks the caller to append more records (or finish_live_input) and call
  /// again with the same `until`.
  StepResult step_live(double until);

  /// Assembles the day's metrics after the caller has stepped through the
  /// covered horizon plus drain. `covered_duration` is the virtual span the
  /// day actually covered (metrics normalise energy/series against it); an
  /// uninterrupted full-day live replay passes scenario().duration and gets
  /// metrics bit-identical to run(), completion times included (one per
  /// appended record, NaN where the flow did not finish).
  RunMetrics finish_live(double covered_duration);

  std::size_t arrivals_appended() const { return appended_; }
  /// Arrivals dispatched into the data plane so far (decision made).
  std::size_t arrivals_consumed() const { return cursor_; }

  // --- policy-facing API --------------------------------------------------

  sim::Simulator& simulator() { return simulator_; }
  flow::FluidNetwork& network() { return *network_; }
  const topo::AccessTopology& topology() const { return *topology_; }
  const ScenarioConfig& scenario() const { return *scenario_; }
  sim::Random& rng() { return rng_; }

  GatewayState gateway_state(int gateway) const;
  bool gateway_active(int gateway) const;

  /// Number of gateways that are awake (active or waking).
  int online_gateway_count() const;

  /// asleep -> waking; the gateway becomes active wake_time later. No-op
  /// unless asleep. Counts towards gateway_wake_events.
  void request_wake(int gateway);

  /// Instantaneous transitions (idealised Optimal only).
  void force_active(int gateway);
  void force_asleep(int gateway);

  /// Wireless rate between a client and a gateway (home vs neighbour).
  double wireless_rate(int client, int gateway) const;

  /// Gateway utilization over the BH2 load-estimation window.
  double gateway_load(int gateway) const;

  /// Live (unfinished) flows of one client.
  const std::vector<flow::FlowId>& live_flows(int client) const;

  /// Full-switch optimal repack of the DSLAM (Optimal only).
  void repack_dslam();

  /// Trace replay horizon (policies stop periodic work at this time).
  double duration() const { return scenario_->duration; }

  // Scheme-behaviour counters surfaced in RunMetrics.
  void count_bh2_move() { ++metrics_.bh2_moves; }
  void count_bh2_home_return() { ++metrics_.bh2_home_returns; }

 private:
  /// Completes a wake: starts serving, notifies the policy, arms SoI.
  void finish_wake(int gateway);

  /// Puts an active, idle gateway to sleep.
  void sleep_gateway(int gateway);

  /// (Re)schedules the SoI idle check for an active gateway.
  void arm_idle_check(int gateway);

  /// Fires when a gateway may have been idle long enough to sleep.
  void idle_check(int gateway);

  /// Pushes gateway/modem meter states and the online-gateway series.
  void sync_gateway_meters(int gateway, power::PowerState state);

  /// Re-reads the DSLAM card states into the card meter and series.
  void sync_card_meters();

  /// flow::CompletionSink: records the completion time, retires the flow
  /// from its client's live list, re-arms SoI and notifies the policy.
  void on_flow_complete(const flow::CompletedFlow& done) override;

  /// Arrival `i`, for cursor_ <= i < appended_.
  const trace::FlowRecord& arrival(std::size_t i) const { return base_[i & mask_]; }

  /// Doubles the live ring, keeping each record at its index.
  void grow_ring();

  /// Claims the FIFO rank of the next trace arrival and publishes it as the
  /// arrival stream's head. The trace is already time-sorted, so arrivals
  /// replay as a sim::EventStream instead of churning through the event
  /// heap; the rank is taken exactly where the arrival event used to be
  /// scheduled, keeping event order identical. In live mode a rank is only
  /// claimed once the record exists; appending the record later claims it
  /// then (the gate keeps those two points the same instant in the event
  /// order).
  void arm_next_arrival();

  /// Processes the trace flow at `cursor_`.
  void process_arrival();

  /// Gate for run_until_gated: may the arrival at `cursor_` dispatch now?
  bool arrival_ready() const;

  /// Adapts the trace cursor to sim::EventStream; registered with the
  /// simulator for the runtime's lifetime. arm_next_arrival publishes its
  /// head.
  class ArrivalStream : public sim::EventStream {
   public:
    explicit ArrivalStream(AccessRuntime& runtime) : runtime_(&runtime) {}
    void fire() override { runtime_->process_arrival(); }
    bool ready() const override { return runtime_->arrival_ready(); }

   private:
    AccessRuntime* runtime_;
  };

  /// Completion times by flow id, NaN until the flow completes. They sit
  /// in segments of doubling size, the first as large as the trace the
  /// runtime was given (kLiveFirstSegment for a live day, whose flow count
  /// is not known up front): none is re-copied while the day runs, a trace
  /// day takes one allocation and a live day O(log n).
  class CompletionTimes {
   public:
    static constexpr std::size_t kLiveFirstSegment = 4096;

    explicit CompletionTimes(std::size_t first_segment) : first_(first_segment) {}
    void set(std::size_t id, double value);
    /// The first `count` times, NaN where none was set. Moves the storage
    /// out: a lone segment is returned whole.
    std::vector<double> take(std::size_t count);

   private:
    /// Segment k holds ids [first_ * (2^k - 1), first_ * (2^(k+1) - 1)).
    std::size_t first_;
    std::vector<std::vector<double>> segments_;
    std::size_t capacity_ = 0;  ///< ids the segments cover
  };

  const ScenarioConfig* scenario_;
  const topo::AccessTopology* topology_;
  Policy* policy_;
  sim::Random rng_;

  sim::Simulator simulator_;
  ArrivalStream arrivals_{*this};
  std::unique_ptr<flow::FluidNetwork> network_;
  dslam::Dslam dslam_;

  power::DeviceGroupMeter households_;
  power::DeviceGroupMeter modems_;
  power::DeviceGroupMeter cards_;

  std::vector<GatewayState> states_;
  std::vector<sim::EventId> wake_events_;
  std::vector<sim::EventId> idle_events_;
  std::vector<double> activation_time_;
  std::vector<std::vector<flow::FlowId>> client_live_flows_;

  stats::StepSeries online_gateways_;
  stats::StepSeries online_cards_;

  RunMetrics metrics_;
  CompletionTimes completion_;

  /// The one arrival window: record i is base_[i & mask_]. A trace runtime
  /// points it at the borrowed trace with an all-ones mask; a LiveMode one
  /// at `ring_`, a power-of-two ring as large as the caller's lookahead,
  /// not the day, holding records [cursor_, appended_) — so a live day's
  /// records stay in cache and never re-copy the day.
  const trace::FlowRecord* base_;
  std::size_t mask_ = ~std::size_t{0};
  std::vector<trace::FlowRecord> ring_;
  std::size_t appended_;
  std::size_t cursor_ = 0;
  double last_time_ = 0.0;  ///< start time of the last appended record

  bool gated_ = false;
  bool input_done_ = true;
  bool started_ = false;
  bool finished_ = false;
  bool arrival_armed_ = false;
};

}  // namespace insomnia::core
