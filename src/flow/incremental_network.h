// The production fluid-network engine, the only one the simulator builds.
// It is observably bit-identical to the exact, eager reference engine that
// the test suites keep as an oracle (tests/support/reference_network.h;
// enforced flow by flow by tests/test_flow_differential.cpp and day by day
// by tests/test_flow_day_twin.cpp), but built to do less work per simulated
// event.
//
// Three structural changes over the reference engine:
//
//  1. Lazy, coalesced water-filling. A mutation (arrival, completion,
//     migration, serving flip) only marks its gateway dirty; the actual
//     water-fill runs once per gateway per instant — either when a query
//     needs current rates (pull-flush) or at the simulator's flush barrier
//     before the clock moves (sim::EventStream::flush). A burst of same-instant
//     arrivals therefore costs one water-fill instead of one per arrival.
//     This is exact, not approximate: the reference engine re-waterfills
//     eagerly after every mutation, so flushing at query time reproduces
//     the rates the reference currently holds, and the barrier guarantees
//     progress integration never spans a stale-rate interval.
//
//  2. No simulator events for completions. The reference engine keeps a
//     completion event per gateway and reschedules it on nearly every
//     reallocation — the dominant source of event-heap traffic. Here each
//     gateway's next completion lives in a small engine-internal min-heap
//     keyed (time, stamp), and the engine registers itself as one of the
//     simulator's sim::EventStreams: it publishes the heap minimum as its
//     head, which the run loop merges by (time, rank) without ever
//     entering the event queue. The head takes a fresh rank exactly where a single tracking
//     event would have been scheduled or rescheduled, and stamps refresh
//     exactly when the reference would have (re)scheduled, so tie order
//     among simultaneous completions and other events matches.
//
//  3. One 64-byte record per flow in per-gateway blocks (flow/flow_state.h):
//     a gateway holds 1.6 live flows on average, so appending, compacting
//     and moving a flow — one cache line each — is what the store is built
//     for; the short scans read the same lines.
//
// All floating-point evaluation orders — water-fill over the (cap, seq)
// order, totals and completion minima in arrival order, progress
// integration — are kept identical to the reference engine, which is what
// makes bit-identity achievable rather than merely approximate equality.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/flow_state.h"
#include "flow/fluid_network.h"
#include "sim/simulator.h"
#include "stats/timeseries.h"

namespace insomnia::flow {

class IncrementalFluidNetwork final : public FluidNetwork, private sim::EventStream {
 public:
  /// `backhaul_rates[g]` is gateway g's broadband speed in bits/s. The
  /// engine registers itself as one of the simulator's event streams until
  /// it is destroyed.
  IncrementalFluidNetwork(sim::Simulator& simulator, std::vector<double> backhaul_rates);
  ~IncrementalFluidNetwork() override;

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
  /// One live flow's wireless cap in the gateway's ascending (cap, seq)
  /// order; `seq` is the flow's per-gateway arrival stamp (FIFO tie-break),
  /// `pos` its position in the gateway's FlowBlock.
  struct SortedCap {
    double cap = 0.0;
    std::uint64_t seq = 0;
    FlowBlock::Pos pos = 0;
  };

  static constexpr std::size_t kNotInHeap = SIZE_MAX;

  struct GatewayState {
    double backhaul = 0.0;
    bool serving = false;
    bool dirty = false;       ///< water-fill deferred since the last mutation
    bool rates_zero = true;   ///< every flow's rate is exactly 0.0
    FlowBlock flows;          ///< live flows, arrival order
    std::vector<SortedCap> sorted;       ///< live caps ascending by (cap, seq)
    std::vector<FlowBlock::Pos> finished;  ///< scratch reused by advance()
    std::vector<FlowBlock::Pos> remap;     ///< scratch reused by compaction
    std::uint64_t next_cap_seq = 0;
    double next_completion = 0.0;  ///< heap key; valid while heap_pos != kNotInHeap
    std::uint64_t heap_stamp = 0;  ///< heap tie-break; refreshed as reference reschedules
    std::size_t heap_pos = kNotInHeap;
    double last_progress = 0.0;  ///< time progress was last integrated
    double throughput = 0.0;     ///< current aggregate rate (as of last water-fill)
    stats::StepSeries served;    ///< aggregate service rate over time
    double last_activity = 0.0;

    // Exact memo for load(), as in the reference engine.
    mutable double load_cache_time = -1.0;
    mutable double load_cache_window = 0.0;
    mutable std::size_t load_cache_changes = 0;
    mutable double load_cache_value = 0.0;

    GatewayState(double rate, double start)
        : backhaul(rate), last_progress(start), served(start, 0.0), last_activity(start) {}
  };

  GatewayState& gateway(int g);
  const GatewayState& gateway(int g) const;

  /// sim::EventStream barrier: water-fills every dirty gateway (in first-marked
  /// order, matching the order the reference's eager reallocations would
  /// have settled in) and re-arms the master completion head.
  void flush() override;

  /// sim::EventStream: clears the master completion head and runs
  /// on_master_event().
  void fire() override;

  /// Brings one gateway's rates current ahead of a rate-observing query.
  /// Leaves the master head to the barrier flush, which is guaranteed to
  /// run before the clock moves.
  void flush_gateway(int g);

  void mark_dirty(int g);

  /// Integrates progress at `gateway` up to now and completes finished
  /// flows. Never water-fills and never marks dirty: the reference engine
  /// has paths (zero-byte add_flow, migration of a completed flow) that
  /// advance without reallocating, and their stale-rate aftermath must
  /// reproduce here exactly.
  void advance(int gateway);

  /// The deferred equivalent of the reference's reallocate(): recomputes
  /// rates and the gateway's entry in the completion heap.
  void waterfill(int gateway);

  void insert_sorted(GatewayState& gw, FlowBlock::Pos pos, double cap, std::uint64_t seq);
  std::uint64_t remove_sorted(GatewayState& gw, FlowBlock::Pos pos);

  /// Fires at the completion-heap minimum; advances the due gateway(s) and
  /// defers their re-waterfill to the flush barrier.
  void on_master_event();

  /// Points the master completion head — this stream's published head,
  /// +infinity when unarmed — at the completion-heap minimum.
  void arm_master();

  // --- completion min-heap over gateways, keyed (next_completion, stamp) --
  bool heap_less(int a, int b) const;
  void heap_insert(int g);
  void heap_update(int g);
  void heap_remove(int g);
  void heap_sift_up(std::size_t pos);
  void heap_sift_down(std::size_t pos);

  sim::Simulator* simulator_;
  std::vector<GatewayState> gateways_;
  FlowIndex index_;
  int live_flows_ = 0;

  std::vector<int> dirty_list_;  ///< gateways awaiting water-fill, first-marked order
  std::vector<int> heap_;        ///< gateway ids, binary min-heap
  std::uint64_t stamp_counter_ = 0;
  std::vector<CompletedFlow> completed_scratch_;  ///< warm buffer for advance()
  /// Water-fills performed, accumulated locally (waterfill is hot) and
  /// folded into the "flow.waterfills" counter once, at destruction.
  std::uint64_t waterfills_ = 0;
};

}  // namespace insomnia::flow
