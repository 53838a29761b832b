#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

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

void Simulator::after_ordered(double delay, std::function<void()> action) {
  util::require(delay >= 0.0, "Simulator::after_ordered needs delay >= 0");
  const double t = now_ + delay;
  util::require_state(lane_.accepts(t), "Simulator::after_ordered needs non-decreasing times");
  lane_.push(t, queue_.allocate_sequence(), std::move(action));
}

void Simulator::OrderedLane::push(double t, std::uint64_t rank, std::function<void()> action) {
  if (size_ == ring_.size()) {
    // Full ring: unwrap into double the capacity (power of two, so the
    // index wrap stays a mask).
    std::vector<Entry> grown(std::max<std::size_t>(16, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) grown[i] = std::move(ring_[index(i)]);
    ring_.swap(grown);
    head_ = 0;
  }
  Entry& entry = ring_[index(size_)];
  entry.time = t;
  entry.rank = rank;
  entry.action = std::move(action);
  ++size_;
}

double Simulator::OrderedLane::next_time() const {
  return size_ == 0 ? std::numeric_limits<double>::infinity() : ring_[head_].time;
}

void Simulator::OrderedLane::fire() {
  // Move the action out before popping: the callback typically re-appends
  // to the lane, possibly into this very ring cell or a regrown ring.
  std::function<void()> action = std::move(ring_[head_].action);
  ring_[head_].action = nullptr;
  head_ = index(1);
  --size_;
  action();
}

void Simulator::add_event_stream(EventStream* stream) {
  util::require(stream != nullptr, "Simulator::add_event_stream needs a stream");
  util::require_state(std::find(streams_.begin(), streams_.end(), stream) == streams_.end(),
                      "event stream already registered with this simulator");
  streams_.push_back(stream);
}

void Simulator::remove_event_stream(EventStream* stream) {
  const auto it = std::find(streams_.begin(), streams_.end(), stream);
  util::require_state(it != streams_.end(), "event stream not registered with this simulator");
  streams_.erase(it);
}

bool Simulator::flush_if_pending() {
  if (!flush_pending_) return false;
  flush_pending_ = false;
  for (EventStream* stream : streams_) stream->flush();
  return true;
}

void Simulator::run_until(double end_time) {
  OBS_SCOPE("sim.run_until");
  run_loop(end_time, /*gated=*/false);
  now_ = end_time;
}

bool Simulator::run_until_gated(double end_time) {
  OBS_SCOPE("sim.run_until");
  const bool reached = run_loop(end_time, /*gated=*/true);
  if (reached) now_ = end_time;
  return reached;
}

void Simulator::run_to_completion() {
  OBS_SCOPE("sim.run_to_completion");
  run_loop(std::numeric_limits<double>::infinity(), /*gated=*/false);
}

bool Simulator::run_loop(double end_time, bool gated) {
  util::require(end_time >= now_, "Simulator::run_until cannot rewind the clock");
  const std::uint64_t executed_before = executed_;
  while (true) {
    // The next event is the (time, rank) minimum of the queue's head and
    // every registered stream's head (`next`; nullptr means the queue).
    // Every rank comes from the queue's one counter, so ties resolve
    // exactly; ranks are read only on a time tie.
    EventStream* next = nullptr;
    double t = queue_.empty() ? std::numeric_limits<double>::infinity() : queue_.next_time();
    for (EventStream* candidate : streams_) {
      const double tc = candidate->next_time();
      if (tc > t || !std::isfinite(tc)) continue;
      if (tc == t &&
          candidate->next_rank() > (next != nullptr ? next->next_rank() : queue_.next_sequence())) {
        continue;
      }
      next = candidate;
      t = tc;
    }
    if ((next == nullptr && queue_.empty()) || t > end_time) {
      if (flush_if_pending()) continue;  // flushed work may arm new events
      break;
    }
    // The flush barrier: deferred same-instant work must come current before
    // the clock moves. Flushing may arm events earlier than t (but always
    // after now()), so re-evaluate what fires next.
    if (t > now_ && flush_if_pending()) continue;
    // The gate sits at the point of no return: everything that would run
    // before the head (including the flush barrier above) has run, the head
    // was about to fire. Pausing here leaves the clock at the last
    // dispatched instant, so a resumed loop continues exactly where an
    // ungated one would have been.
    if (gated && next != nullptr && !next->ready()) {
      record_executed_delta(executed_ - executed_before);
      return false;
    }
    // Advance the clock before dispatching so the callback observes now()
    // equal to its own firing time.
    now_ = t;
    if (next == nullptr) {
      queue_.run_next();
    } else {
      next->fire();
    }
    ++executed_;
  }
  record_executed_delta(executed_ - executed_before);
  return true;
}

}  // namespace insomnia::sim
