// The online fleet controller: polls an EventSource once per tick, moves
// records through a bounded IngestQueue, feeds them to the scheme's
// AccessRuntime (the engine's scheme day, run incrementally), and pairs it
// with the traffic-free baseline to assemble the exact offline RunReport.
//
// Two pacing modes:
//  - kVirtual replays as fast as the machine allows with the arrival gate
//    engaged; over the same records and seed the final report is
//    byte-identical (modulo the telemetry block) to an offline Engine run —
//    the replay-equivalence contract pinned by tests/test_live_controller.cpp
//    and scripts/check.sh.
//  - kWall pins virtual time to the wall clock (scaled by `speedup`),
//    sleeping between ticks and counting overruns; late records are clamped
//    forward and decided immediately rather than rejected.
//
// Every accepted record carries an ingest wall-clock stamp; the controller
// turns stamps into the ingest→decision latency distribution (p50/p95/p99):
// an always-on obs::Histogram surfaced in LiveStats, and the
// "live.ingest_decision_ns" telemetry histogram of the same shape.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <string>

#include "core/engine.h"
#include "core/scenario.h"
#include "core/scheme_registry.h"
#include "live/event_source.h"
#include "live/ingest_queue.h"
#include "obs/metrics.h"
#include "trace/records.h"

namespace insomnia::live {

enum class PaceMode {
  kVirtual,  ///< as-fast-as-possible gated replay (bit-identical to offline)
  kWall,     ///< virtual time pinned to the wall clock via `speedup`
};

/// Operational counters for one controller run (the report covers the
/// simulated day; this covers the machine running it).
struct LiveStats {
  std::uint64_t ingested = 0;  ///< records accepted into the queue
  std::uint64_t dropped = 0;   ///< records shed by kDropNewest
  std::uint64_t decided = 0;   ///< arrivals dispatched into the data plane
  std::uint64_t ticks = 0;
  std::uint64_t tick_overruns = 0;  ///< wall ticks that missed their deadline
  std::size_t peak_queue_depth = 0;
  double wall_seconds = 0.0;
  double virtual_seconds = 0.0;  ///< covered day span (excludes drain)
  double ingest_events_per_sec = 0.0;
  obs::Histogram::Snapshot latency;  ///< ingest->decision, nanoseconds
  bool interrupted = false;  ///< a stop signal ended the run early
};

struct LiveResult {
  core::RunReport report;
  LiveStats stats;
};

class LiveController {
 public:
  struct Options {
    /// Resolved scenario; `scenario.duration` is the virtual-day horizon the
    /// controller advances towards (plus drain_time at shutdown).
    core::ScenarioConfig scenario;
    /// Report-echo fields — must match the offline RunSpec being compared
    /// against for the byte-identity gate to hold.
    std::string preset_name = "paper-default";
    std::string trace_file;
    std::string scheme = "bh2-kswitch";
    std::uint64_t seed = 42;
    PaceMode pace = PaceMode::kVirtual;
    double tick_virtual_sec = 300.0;  ///< virtual step per tick (kVirtual)
    double tick_wall_sec = 0.02;      ///< wall tick period (kWall)
    double speedup = 1.0;             ///< virtual seconds per wall second (kWall)
    double max_wall_sec = 0.0;        ///< wall-clock budget; 0 = unbounded
    std::size_t queue_capacity = 65536;
    OverflowPolicy overflow = OverflowPolicy::kBackpressure;
    std::size_t bins = 24;
    double peak_start = 11.0 * 3600.0;
    double peak_end = 19.0 * 3600.0;
    double heartbeat_sec = 0.0;  ///< stderr heartbeat period; 0 = off
    /// Mirrors every accepted record to a flow-trace file (trace_io format)
    /// so a live day can be replayed offline.
    std::string record_path;
  };

  LiveController(Options options, std::unique_ptr<EventSource> source);
  ~LiveController();

  LiveController(const LiveController&) = delete;
  LiveController& operator=(const LiveController&) = delete;

  /// Runs to completion (source exhausted / horizon reached / wall budget
  /// spent) or until `*stop` becomes true — the SIGINT/SIGTERM drain path:
  /// queued records still get decisions, the day drains, and the report
  /// covers the span actually simulated.
  LiveResult run(const std::atomic<bool>* stop = nullptr);

 private:
  class Prefetcher;  ///< the persistent poll thread of one run() (the .cpp)

  /// Polls the source into the queue (honouring the overflow policy) and
  /// drains the queue into the runtime. Returns records appended.
  std::size_t ingest(double horizon);

  /// The poll half of ingest(): source -> queue only, no runtime touched —
  /// safe to run while the runtime is stepping. Returns records accepted.
  std::size_t poll_into_queue(double horizon);

  /// Moves everything queued into the runtime (stamps kept FIFO). The
  /// poll-free half of ingest(); the shutdown path uses it alone so an
  /// interrupted run never appends arrivals it will not simulate.
  std::size_t drain_queue();

  /// Steps the runtime to `until` while `prefetcher` polls the source up
  /// to `poll_horizon`, replenishing whenever the arrival gate starves;
  /// marks input finished when the source is spent.
  void advance_to(double until, double poll_horizon, const std::atomic<bool>* stop,
                  Prefetcher& prefetcher);

  /// Folds ingest stamps of newly consumed arrivals into the latency
  /// histograms.
  void account_latency();

  void heartbeat(double virtual_time);

  core::AccessRuntime& runtime() { return day_->runtime(); }

  Options options_;
  std::unique_ptr<EventSource> source_;
  topo::AccessTopology topology_;
  std::unique_ptr<core::SchemeDay> day_;  ///< the scheme's live day
  IngestQueue queue_;
  std::deque<StampRun> inflight_stamps_;
  obs::Histogram latency_;  ///< always on, so livectl prints it with obs off
  LiveStats stats_;
  bool input_done_ = false;
  std::ofstream record_out_;
  std::uint64_t tick_wall_ns_ = 0;
  std::uint64_t heartbeat_ns_ = 0;  ///< 0 = off
  std::uint64_t wall_start_ns_ = 0;
  std::uint64_t next_heartbeat_ns_ = 0;
};

}  // namespace insomnia::live
