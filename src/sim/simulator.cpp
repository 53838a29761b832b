#include "sim/simulator.h"

#include <algorithm>
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

void Simulator::set_ordered_handler(OrderedHandler* handler) {
  util::require_state(handler == ordered_handler_ || lane_.size() == 0,
                      "Simulator::set_ordered_handler with lane events pending");
  ordered_handler_ = handler;
}

void Simulator::after_ordered(double delay, std::uint64_t tag) {
  util::require(delay >= 0.0, "Simulator::after_ordered needs delay >= 0");
  const double t = now_ + delay;
  util::require_state(ordered_handler_ != nullptr,
                      "Simulator::after_ordered needs a bound ordered handler");
  util::require_state(lane_.accepts(t), "Simulator::after_ordered needs non-decreasing times");
  lane_.push({t, queue_.allocate_sequence(), tag});
  if (lane_.size() == 1) publish_lane_head();
}

void Simulator::OrderedLane::push(const Entry& entry) {
  if (size_ == ring_.size()) {
    // Full ring: unwrap into double the capacity (power of two, so the
    // index wrap stays a mask).
    std::vector<Entry> grown(std::max<std::size_t>(16, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) grown[i] = ring_[index(i)];
    ring_.swap(grown);
    head_ = 0;
  }
  ring_[index(size_)] = entry;
  ++size_;
}

Simulator::OrderedLane::Entry Simulator::OrderedLane::pop() {
  const Entry entry = ring_[head_];
  head_ = index(1);
  --size_;
  return entry;
}

void Simulator::publish_lane_head() {
  heads_[kLaneSlot] = lane_.size() == 0
                          ? Head{std::numeric_limits<double>::infinity(), 0}
                          : Head{lane_.front().time, lane_.front().rank};
}

void Simulator::fire_lane() {
  // Pop and republish before dispatching: the handler typically re-appends
  // to the lane, possibly into this very ring cell or a regrown ring.
  const std::uint64_t tag = lane_.pop().tag;
  publish_lane_head();
  ordered_handler_->on_ordered(tag);
}

void Simulator::add_event_stream(EventStream* stream) {
  util::require(stream != nullptr, "Simulator::add_event_stream needs a stream");
  util::require_state(stream->owner_ == nullptr, "event stream already registered");
  stream->owner_ = this;
  stream->slot_ = streams_.size();
  streams_.push_back(stream);
  heads_.push_back(Head{stream->head_time_, stream->head_rank_});
}

void Simulator::remove_event_stream(EventStream* stream) {
  util::require_state(stream != nullptr && stream->owner_ == this,
                      "event stream not registered with this simulator");
  const std::size_t slot = stream->slot_;
  streams_.erase(streams_.begin() + static_cast<std::ptrdiff_t>(slot));
  heads_.erase(heads_.begin() + static_cast<std::ptrdiff_t>(slot));
  for (std::size_t i = slot; i < streams_.size(); ++i) streams_[i]->slot_ = i;
  stream->owner_ = nullptr;
  stream->slot_ = EventStream::kUnregistered;
}

bool Simulator::flush_if_pending() {
  if (!flush_pending_) return false;
  flush_pending_ = false;
  for (std::size_t slot = kLaneSlot + 1; slot < streams_.size(); ++slot) streams_[slot]->flush();
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
  constexpr double kNever = std::numeric_limits<double>::infinity();
  constexpr std::size_t kQueue = SIZE_MAX;
  const std::uint64_t executed_before = executed_;
  while (true) {
    // The next event is the (time, rank) minimum of the queue's head and
    // every published head (`next` is its slot; kQueue means the queue).
    // Every rank comes from the queue's one counter, so ties resolve
    // exactly, whatever the slot order. A head at +infinity is unarmed.
    std::size_t next = kQueue;
    double t = kNever;
    std::uint64_t rank = 0;
    if (!queue_.empty()) {
      t = queue_.next_time();
      rank = queue_.next_sequence();
    }
    const Head* heads = heads_.data();
    const std::size_t count = heads_.size();
    for (std::size_t i = 0; i < count; ++i) {
      const double tc = heads[i].time;
      if (tc > t || tc == kNever || (tc == t && heads[i].rank > rank)) continue;
      next = i;
      t = tc;
      rank = heads[i].rank;
    }
    if ((next == kQueue && queue_.empty()) || t > end_time) {
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
    if (gated && next != kQueue && next != kLaneSlot && !streams_[next]->ready()) {
      record_executed_delta(executed_ - executed_before);
      return false;
    }
    // Advance the clock before dispatching so the callback observes now()
    // equal to its own firing time.
    now_ = t;
    if (next == kQueue) {
      queue_.run_next();
    } else if (next == kLaneSlot) {
      fire_lane();
    } else {
      streams_[next]->fire();
    }
    ++executed_;
  }
  record_executed_delta(executed_ - executed_before);
  return true;
}

}  // namespace insomnia::sim
