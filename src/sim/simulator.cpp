#include "sim/simulator.h"

#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/error.h"

namespace insomnia::sim {

namespace {

// Collection-point discipline: the event loop itself carries zero
// instrumentation — we add the executed-events delta to the registry once
// per run_until/run_to_completion call. The counter reference is resolved
// once per process.
void record_executed_delta(std::uint64_t delta) {
#ifndef INSOMNIA_OBS_DISABLED
  static obs::Counter& events = obs::counter("sim.events");
  events.add(delta);
#else
  (void)delta;
#endif
}

}  // namespace

EventId Simulator::at(double t, std::function<void()> action) {
  util::require(t >= now_, "Simulator::at cannot schedule in the past");
  return queue_.schedule(t, std::move(action));
}

bool Simulator::reschedule(EventId id, double t) {
  util::require(t >= now_, "Simulator::reschedule cannot schedule in the past");
  return queue_.reschedule(id, t);
}

EventId Simulator::after(double delay, std::function<void()> action) {
  util::require(delay >= 0.0, "Simulator::after needs delay >= 0");
  return queue_.schedule(now_ + delay, std::move(action));
}

bool Simulator::flush_if_pending() {
  if (!flush_pending_ || hook_ == nullptr) return false;
  flush_pending_ = false;
  hook_->flush();
  return true;
}

void Simulator::run_until(double end_time, EventStream* stream) {
  OBS_SCOPE("sim.run_until");
  run_loop(end_time, stream, /*gated=*/false);
  now_ = end_time;
}

bool Simulator::run_until_gated(double end_time, EventStream* stream) {
  util::require(stream != nullptr, "Simulator::run_until_gated needs a stream");
  OBS_SCOPE("sim.run_until");
  const bool reached = run_loop(end_time, stream, /*gated=*/true);
  if (reached) now_ = end_time;
  return reached;
}

void Simulator::run_to_completion() {
  OBS_SCOPE("sim.run_to_completion");
  run_loop(std::numeric_limits<double>::infinity(), nullptr, /*gated=*/false);
}

bool Simulator::run_loop(double end_time, EventStream* stream, bool gated) {
  util::require(end_time >= now_, "Simulator::run_until cannot rewind the clock");
  const std::uint64_t executed_before = executed_;
  enum class Source { kNone, kQueue, kStream, kRegistered };
  while (true) {
    // The next event is the (time, rank) minimum of three heads: the queue,
    // the run's stream and the registered stream. Every rank comes from the
    // queue's one counter, so ties resolve exactly; ranks are read only on a
    // time tie.
    Source source = Source::kNone;
    double t = std::numeric_limits<double>::infinity();
    if (!queue_.empty()) {
      source = Source::kQueue;
      t = queue_.next_time();
    }
    const auto consider = [&](EventStream* candidate, Source which) {
      if (candidate == nullptr) return;
      const double tc = candidate->next_time();
      if (!std::isfinite(tc) || tc > t) return;
      if (tc == t) {
        const std::uint64_t best =
            source == Source::kQueue ? queue_.next_sequence() : stream->next_rank();
        if (candidate->next_rank() > best) return;
      }
      source = which;
      t = tc;
    };
    consider(stream, Source::kStream);
    consider(registered_, Source::kRegistered);
    if (source == Source::kNone || t > end_time) {
      if (flush_if_pending()) continue;  // flushed work may queue new events
      break;
    }
    // The flush barrier: deferred same-instant work must come current before
    // the clock moves. Flushing may schedule events earlier than t (but
    // always after now()), so re-evaluate what fires next.
    if (t > now_ && flush_if_pending()) continue;
    // The gate sits at the point of no return: everything that would run
    // before the head (including the flush barrier above) has run, the head
    // was about to fire. Pausing here leaves the clock at the last
    // dispatched instant, so a resumed loop continues exactly where an
    // ungated one would have been.
    if (gated && source == Source::kStream && !stream->ready()) {
      record_executed_delta(executed_ - executed_before);
      return false;
    }
    // Advance the clock before dispatching so the callback observes now()
    // equal to its own firing time.
    now_ = t;
    if (source == Source::kQueue) {
      queue_.run_next();
    } else if (source == Source::kStream) {
      stream->fire();
    } else {
      registered_->fire();
    }
    ++executed_;
  }
  record_executed_delta(executed_ - executed_before);
  return true;
}

}  // namespace insomnia::sim
