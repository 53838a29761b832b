#include "live/live_controller.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <iostream>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/day_summary.h"
#include "core/metrics.h"
#include "core/runtime.h"
#include "core/scheme_registry.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "sim/random.h"
#include "topology/access_topology.h"
#include "util/csv.h"
#include "util/error.h"

namespace insomnia::live {

namespace {

constexpr std::size_t kPollBatch = 4096;

// Shape of both ingest->decision histograms: 100 ns to 10 s, 60 log bins.
constexpr double kLatencyLoNs = 100.0;
constexpr double kLatencyHiNs = 1e10;
constexpr int kLatencyBins = 60;

// Whole nanoseconds in `seconds`, refusing values whose count a uint64_t
// cannot hold (the cast would be undefined).
std::uint64_t seconds_to_ns(double seconds, const char* what) {
  util::require(seconds >= 0.0 && seconds * 1e9 < 18446744073709551616.0,
                std::string(what) + " must be a non-negative span under ~584 years");
  return static_cast<std::uint64_t>(seconds * 1e9);
}

}  // namespace

// The stepping loop's one poll thread. Each round, start() hands it a
// poll_into_queue(horizon) while the main thread steps the runtime, and
// wait() joins the round — the same join points a thread per round had,
// without paying a thread spawn and join 500-odd times a day. Poll touches
// no runtime, and the queue and the appends are only used between joins.
// The thread lives for one run(); the destructor lets a pending round
// finish and joins it, so every exit path (an exception, the stop flag)
// leaves no thread behind.
class LiveController::Prefetcher {
 public:
  explicit Prefetcher(LiveController& owner) : owner_(owner), thread_([this] { loop(); }) {}

  ~Prefetcher() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_one();
    thread_.join();
  }

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Starts one round: poll_into_queue(horizon) on the worker.
  void start(double horizon) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      horizon_ = horizon;
      pending_ = true;
    }
    wake_.notify_one();
  }

  /// Joins the round started last; rethrows what its poll threw.
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return !pending_; });
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

  /// Joins the round started last, dropping what its poll threw (an
  /// exception already unwinding takes precedence).
  void settle() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return !pending_; });
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      wake_.wait(lock, [this] { return pending_ || stopping_; });
      if (!pending_) return;  // stopping, with no round left to run
      const double horizon = horizon_;
      lock.unlock();
      std::exception_ptr error;
      try {
        owner_.poll_into_queue(horizon);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      error_ = error;
      pending_ = false;
      done_.notify_one();
    }
  }

  LiveController& owner_;
  std::mutex mutex_;
  std::condition_variable wake_;  ///< a round was started, or stopping
  std::condition_variable done_;  ///< the round finished
  double horizon_ = 0.0;
  bool pending_ = false;
  bool stopping_ = false;
  std::exception_ptr error_;
  std::thread thread_;  ///< last: starts once the state above exists
};

LiveController::LiveController(Options options, std::unique_ptr<EventSource> source)
    : options_(std::move(options)),
      source_(std::move(source)),
      queue_(options_.queue_capacity, options_.overflow),
      latency_(kLatencyLoNs, kLatencyHiNs, kLatencyBins, obs::Histogram::Recording::kAlways) {
  util::require(source_ != nullptr, "live controller needs an event source");
  util::require(options_.scenario.duration > 0, "live run needs a positive horizon");
  util::require(options_.bins >= 1, "live run needs at least one bin");
  util::require(options_.peak_start < options_.peak_end, "peak window must not be empty");
  util::require(options_.tick_virtual_sec > 0 && options_.tick_wall_sec > 0 &&
                    std::isfinite(options_.tick_virtual_sec) &&
                    std::isfinite(options_.tick_wall_sec),
                "tick sizes must be positive and finite");
  util::require(options_.speedup > 0 && std::isfinite(options_.speedup),
                "speedup must be positive and finite");
  tick_wall_ns_ = seconds_to_ns(options_.tick_wall_sec, "the wall tick");
  if (!(options_.heartbeat_sec <= 0)) {  // a NaN period is refused, not "off"
    heartbeat_ns_ = seconds_to_ns(options_.heartbeat_sec, "the heartbeat period");
  }
  util::require(options_.overflow == OverflowPolicy::kBackpressure ||
                    options_.pace == PaceMode::kWall,
                "drop-newest load shedding requires wall pacing (a virtual-time "
                "replay must decide every record)");
}

LiveController::~LiveController() = default;

std::size_t LiveController::ingest(double horizon) {
  poll_into_queue(horizon);
  return drain_queue();
}

std::size_t LiveController::poll_into_queue(double horizon) {
  OBS_SCOPE("live.poll");
  // Move whatever the source has (up to `horizon` for the generator) into
  // the bounded queue, one ingest stamp per batch.
  std::size_t accepted = 0;
  while (!source_->exhausted()) {
    const std::size_t room = options_.overflow == OverflowPolicy::kBackpressure
                                 ? queue_.free_slots()
                                 : kPollBatch;
    if (room == 0) break;
    const IngestQueue::Polled polled =
        queue_.poll_from(*source_, horizon, std::min(room, kPollBatch));
    if (polled.got == 0) break;
    // Under kDropNewest the overflow is the batch TAIL, so the accepted
    // records are exactly the first `taken` — what the recorder mirrors.
    accepted += polled.taken;
    if (record_out_.is_open() && polled.taken > 0) {
      util::CsvWriter writer(record_out_);
      for (std::size_t r = 0; r < polled.taken; ++r) {
        const trace::FlowRecord& record = polled.records[r];
        writer.row({record.start_time, static_cast<double>(record.client), record.bytes});
      }
    }
  }
  return accepted;
}

std::size_t LiveController::drain_queue() {
  OBS_SCOPE("live.drain");
  const std::size_t drained = queue_.size();
  if (drained == 0) return 0;
  util::require_state(!input_done_, "records queued after live input was finished");
  // The queued span goes straight into the runtime's arrival buffer.
  runtime().append_live_arrivals(queue_.front(), drained);
  queue_.consume(drained, inflight_stamps_);
  return drained;
}

void LiveController::advance_to(double until, double poll_horizon,
                                const std::atomic<bool>* stop, Prefetcher& prefetcher) {
  // Wall pace polls fresh records up to `until` so this tick decides them.
  // Under backpressure one poll takes at most a queue's worth, so it keeps
  // polling until a poll comes back short: nothing due is left behind for a
  // tick that may never come. Virtual pace only appends what the previous
  // round's prefetch already polled — polling here would put the generator
  // back on the critical path.
  if (options_.pace == PaceMode::kWall) {
    while (ingest(poll_horizon) == queue_.capacity()) {
    }
  } else {
    drain_queue();
  }
  while (true) {
    // The runtime keeps the main thread (and its cache); the prefetcher
    // polls the source meanwhile, keeping the generator off the critical
    // path. Poll touches no runtime, and the queue and the appends are only
    // ever used between joins, so nothing is seen by two threads at once.
    core::AccessRuntime::StepResult step;
    prefetcher.start(poll_horizon);
    try {
      step = runtime().step_live(until);
    } catch (...) {
      prefetcher.settle();  // no poll may outlive the unwinding
      throw;
    }
    prefetcher.wait();
    const std::size_t appended = drain_queue();
    if (step == core::AccessRuntime::StepResult::kReachedTime) break;
    // The gate starved: the last buffered arrival needs its successor (or an
    // end-of-input promise) before it may dispatch.
    if (appended > 0) continue;
    if (ingest(std::numeric_limits<double>::infinity()) > 0) continue;
    if (source_->exhausted() || (stop != nullptr && stop->load())) {
      if (!input_done_) {
        runtime().finish_live_input();
        input_done_ = true;
      }
      continue;  // the gate is open; stepping now reaches `until`
    }
    // A live source with nothing buffered yet: wait for bytes.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  account_latency();
}

void LiveController::account_latency() {
  const std::uint64_t consumed = runtime().arrivals_consumed();
  std::uint64_t newly = consumed - stats_.decided;
  if (newly == 0) return;
  const std::uint64_t now = obs::now_ns();
  static obs::Histogram& decision_ns =
      obs::histogram("live.ingest_decision_ns", kLatencyLoNs, kLatencyHiNs, kLatencyBins);
  while (newly > 0) {
    util::require_state(!inflight_stamps_.empty(),
                        "live latency accounting lost an ingest stamp");
    StampRun& run = inflight_stamps_.front();
    const auto slice =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(newly, run.count));
    const auto ns = static_cast<double>(now >= run.stamp_ns ? now - run.stamp_ns : 0);
    latency_.record_n(ns, slice);
    decision_ns.record_n(ns, slice);  // a no-op unless telemetry is on
    run.count -= slice;
    if (run.count == 0) inflight_stamps_.pop_front();
    newly -= slice;
  }
  stats_.decided = consumed;
}

void LiveController::heartbeat(double virtual_time) {
  if (heartbeat_ns_ == 0) return;
  const std::uint64_t now = obs::now_ns();
  if (now < next_heartbeat_ns_) return;
  next_heartbeat_ns_ = now + heartbeat_ns_;
  const double wall = static_cast<double>(now - wall_start_ns_) / 1e9;
  std::cerr << "[live] vt " << virtual_time << "s | wall " << wall << "s | ingested "
            << queue_.accepted() << " | decided " << stats_.decided << " | queue "
            << queue_.size() << " (peak " << queue_.peak_depth() << ") | dropped "
            << queue_.dropped() << " | online gw "
            << runtime().online_gateway_count() << "/"
            << options_.scenario.gateway_count << "\n";
}

LiveResult LiveController::run(const std::atomic<bool>* stop) {
  OBS_SCOPE("live.run");
  util::require_state(day_ == nullptr, "LiveController::run may be called once");

  const core::SchemeSpec& scheme_spec = core::find_scheme(options_.scheme);
  {
    // Engine run 0's scheme day, fed incrementally. The paired baseline
    // needs no live runtime: it is the traffic-free run_no_sleep_baseline,
    // computed once the covered span is known.
    OBS_SCOPE("live.setup");
    topology_ = core::run_topology(options_.scenario, options_.seed);
    day_ = std::make_unique<core::SchemeDay>(
        options_.scenario, topology_, scheme_spec,
        sim::Random::substream_seed(options_.seed, 0, core::kRunDayKeys.scheme),
        core::AccessRuntime::LiveMode{options_.pace == PaceMode::kVirtual});
  }

  core::RunReport report;
  report.scheme = scheme_spec.name;
  report.scheme_display = scheme_spec.display;
  report.preset = options_.preset_name;
  report.trace_file = options_.trace_file;
  report.seed = options_.seed;
  report.runs = 1;
  report.bins = options_.bins;
  report.peak_start = options_.peak_start;
  report.peak_end = options_.peak_end;
  report.clients = options_.scenario.client_count;
  report.gateways = options_.scenario.gateway_count;

  if (!options_.record_path.empty()) {
    record_out_.open(options_.record_path);
    util::require(static_cast<bool>(record_out_),
                  "cannot write trace record file " + options_.record_path);
    util::CsvWriter writer(record_out_);
    writer.header({"start_time", "client", "bytes"});
  }

  wall_start_ns_ = obs::now_ns();
  next_heartbeat_ns_ = wall_start_ns_ + heartbeat_ns_;

  const double day_span = options_.scenario.duration;
  double virtual_time = 0.0;
  bool interrupted = false;

  // Records already on hand land in the buffer before the warm start.
  ingest(options_.pace == PaceMode::kVirtual ? options_.tick_virtual_sec : 0.0);
  runtime().begin_live();
  Prefetcher prefetcher(*this);

  if (options_.pace == PaceMode::kVirtual) {
    while (virtual_time < day_span) {
      if (stop != nullptr && stop->load()) {
        interrupted = true;
        break;
      }
      if (options_.max_wall_sec > 0 &&
          static_cast<double>(obs::now_ns() - wall_start_ns_) / 1e9 >=
              options_.max_wall_sec) {
        break;
      }
      virtual_time = std::min(virtual_time + options_.tick_virtual_sec, day_span);
      // Two ticks of poll lookahead: records prefetched during tick N cover
      // past tick N+1's horizon, so N+1 steps through in one round — the
      // gate never starves at a tick boundary waiting for a successor.
      advance_to(virtual_time, virtual_time + 2.0 * options_.tick_virtual_sec, stop,
                 prefetcher);
      ++stats_.ticks;
#ifndef INSOMNIA_OBS_DISABLED
      obs::gauge("live.virtual_time_sec").set(virtual_time);
      obs::gauge("live.online_gateways")
          .set(static_cast<double>(runtime().online_gateway_count()));
#endif
      heartbeat(virtual_time);
    }
  } else {
    const std::uint64_t start = wall_start_ns_;
    std::uint64_t next_tick = start + tick_wall_ns_;
    while (true) {
      if (stop != nullptr && stop->load()) {
        interrupted = true;
        break;
      }
      std::uint64_t now = obs::now_ns();
      if (options_.max_wall_sec > 0 &&
          static_cast<double>(now - start) / 1e9 >= options_.max_wall_sec) {
        break;
      }
      if (now < next_tick) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(next_tick - now));
      } else {
        ++stats_.tick_overruns;
      }
      next_tick += tick_wall_ns_;
      now = obs::now_ns();
      const double elapsed = static_cast<double>(now - start) / 1e9;
      virtual_time = std::min(elapsed * options_.speedup, day_span);
      advance_to(virtual_time, virtual_time, stop, prefetcher);
      ++stats_.ticks;
#ifndef INSOMNIA_OBS_DISABLED
      obs::gauge("live.virtual_time_sec").set(virtual_time);
      obs::gauge("live.online_gateways")
          .set(static_cast<double>(runtime().online_gateway_count()));
#endif
      heartbeat(virtual_time);
      if (virtual_time >= day_span) break;
      if (source_->exhausted() && queue_.empty() &&
          runtime().arrivals_consumed() == runtime().arrivals_appended()) {
        break;
      }
    }
  }

  // Graceful drain: every queued record still gets a decision, the day
  // drains for drain_time past the covered span, and the report covers what
  // was actually simulated. An uninterrupted virtual replay has
  // covered == duration and this is exactly run()'s epilogue.
  const double covered = std::max(std::min(virtual_time, day_span), 1e-9);
  if (!input_done_) {
    drain_queue();
    runtime().finish_live_input();
    input_done_ = true;
  }
  const auto drain_step = runtime().step_live(covered + options_.scenario.drain_time);
  util::require_state(drain_step == core::AccessRuntime::StepResult::kReachedTime,
                      "live drain stalled with input finished");
  account_latency();
  // The ingest window closes with the last decision; assembling the report
  // below is offline bookkeeping, not part of the streaming path.
  stats_.wall_seconds = static_cast<double>(obs::now_ns() - wall_start_ns_) / 1e9;

  const core::RunMetrics baseline_metrics = core::run_no_sleep_baseline(
      options_.scenario, topology_,
      sim::Random::substream_seed(options_.seed, 0, core::kRunDayKeys.baseline), covered);
  const core::RunMetrics scheme_metrics = day_->finish(covered);

  std::vector<core::PairedDaySummary> days;
  days.push_back(core::summarize_paired_day(
      baseline_metrics, scheme_metrics,
      static_cast<std::uint64_t>(runtime().arrivals_appended()), options_.bins,
      options_.peak_start, options_.peak_end));
  core::fold_paired_days(days, report);

  if (record_out_.is_open()) record_out_.close();

  stats_.interrupted = interrupted;
  stats_.virtual_seconds = covered;
  stats_.ingested = queue_.accepted();
  stats_.dropped = queue_.dropped();
  stats_.peak_queue_depth = queue_.peak_depth();
  stats_.ingest_events_per_sec =
      stats_.wall_seconds > 0 ? static_cast<double>(stats_.ingested) / stats_.wall_seconds
                              : 0.0;
  stats_.latency = latency_.snapshot();
#ifndef INSOMNIA_OBS_DISABLED
  obs::counter("live.ingest.accepted").add(stats_.ingested);
  obs::counter("live.ingest.dropped").add(stats_.dropped);
  obs::counter("live.ticks").add(stats_.ticks);
  obs::counter("live.tick.overruns").add(stats_.tick_overruns);
  obs::gauge("live.queue.peak_depth").set(static_cast<double>(stats_.peak_queue_depth));
#endif

  return LiveResult{std::move(report), stats_};
}

}  // namespace insomnia::live
