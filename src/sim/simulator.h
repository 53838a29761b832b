// The discrete-event simulation driver: a clock plus the event queue, with
// absolute and relative scheduling and a bounded run loop.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"

namespace insomnia::sim {

/// An already-ordered source of timed events that the run loop interleaves
/// with the queue without its events ever entering the heap — e.g. a trace
/// replay whose arrivals are sorted by time, or a component that tracks one
/// moving head event of its own. Registered with
/// Simulator::add_event_stream.
///
/// Ordering contract: the head's rank must come from
/// Simulator::allocate_sequence(), taken at the moment the event would
/// otherwise have been schedule()d. Among equal times, the lower rank
/// fires first — the exact FIFO order real schedule() calls would give —
/// so the order streams were registered in never matters.
class EventStream {
 public:
  virtual ~EventStream() = default;

  /// Time of the stream's head event; +infinity when exhausted.
  virtual double next_time() const = 0;

  /// FIFO rank of the head event (see class comment).
  virtual std::uint64_t next_rank() const = 0;

  /// Fires the head event and advances the stream.
  virtual void fire() = 0;

  /// Gate consulted by run_until_gated at the instant the head would fire:
  /// false pauses the run loop so the producer can extend the stream first.
  /// Live replay uses this to hold the last buffered arrival back until its
  /// successor is known — the successor's FIFO rank is claimed while the
  /// head is processed, so firing early would claim it at a later point in
  /// the event order than an offline replay would (run_until ignores the
  /// gate). Default: always ready.
  virtual bool ready() const { return true; }

  /// The deferred-work barrier. A stream that batches same-instant work (the
  /// incremental flow engine coalesces a burst of arrivals into one
  /// reallocation pass) calls Simulator::request_flush() after deferring;
  /// the run loop then flushes every registered stream before the clock
  /// moves past the current instant, so deferred work can still arm events
  /// at future times without ever being observed late. Called with now()
  /// unchanged since the request; must leave nothing deferred (it is not
  /// re-entered for work it performs itself, unless request_flush is called
  /// again). Default: nothing deferred.
  virtual void flush() {}
};

/// Discrete-event simulator clock and scheduler.
///
/// Time is in seconds and only moves forward. Callbacks receive no
/// arguments; they capture what they need and may schedule further events.
class Simulator {
 public:
  /// Constructs a simulator whose clock starts at `start_time`.
  explicit Simulator(double start_time = 0.0) : now_(start_time) {}

  // Registered streams (the lane included) are held by address.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  double now() const { return now_; }

  /// Schedules `action` at absolute time `t` (>= now).
  EventId at(double t, std::function<void()> action);

  /// Schedules `action` `delay` seconds from now (delay >= 0).
  EventId after(double delay, std::function<void()> action);

  /// As after(), but through the ordered lane: the event gets no handle (it
  /// cannot be cancelled) and fires in exactly the order after() would give
  /// it. Every call's `now() + delay` must be non-decreasing, so use it for
  /// one fixed-period self-re-arming family; an out-of-order time throws
  /// util::InvalidState, leaving the lane and the rank counter unchanged.
  void after_ordered(double delay, std::function<void()> action);

  /// Cancels a pending event; returns true if it was still pending.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Moves a pending event to absolute time `t` (>= now), reusing its
  /// stored closure; returns false if `id` is not pending. Equivalent to
  /// cancel + at with the same callback, minus the allocation.
  bool reschedule(EventId id, double t);

  /// True if `id` is scheduled and has not yet fired or been cancelled.
  bool is_pending(EventId id) const { return queue_.is_pending(id); }

  /// Runs events in order until the queue and every registered stream are
  /// exhausted or the next event lies beyond `end_time`; the clock finishes
  /// exactly at `end_time`.
  void run_until(double end_time);

  /// As run_until, but pauses when the next event to fire is a stream head
  /// whose ready() is false: returns false with the clock still at the last
  /// dispatched instant (it does NOT jump to end_time) so the caller can
  /// extend the stream and resume. Returns true once end_time is reached. A
  /// sequence of gated calls that always resumes executes exactly the
  /// events a single run_until would, in the same order.
  bool run_until_gated(double end_time);

  /// Consumes the next FIFO rank for an EventStream head (see EventStream).
  std::uint64_t allocate_sequence() { return queue_.allocate_sequence(); }

  /// Runs all remaining events, the registered streams' included (use only
  /// when the event set is finite); the clock finishes at the last event.
  void run_to_completion();

  /// Registers a stream the run loop merges with the queue by (time, rank)
  /// in every run; a requested flush reaches the streams in registration
  /// order. Registering a pointer twice throws util::InvalidState.
  /// The stream must be removed before it is destroyed unless the simulator
  /// goes first.
  void add_event_stream(EventStream* stream);

  /// Unregisters a stream; throws util::InvalidState if it is not
  /// registered.
  void remove_event_stream(EventStream* stream);

  /// Asks the run loop to flush every registered stream before the clock
  /// next moves past the current instant (and before run_until /
  /// run_to_completion return). Cheap and idempotent.
  void request_flush() { flush_pending_ = true; }

  /// Number of events executed so far.
  std::uint64_t executed_events() const { return executed_; }

  /// Number of pending queued and ordered-lane events (other registered
  /// streams' heads are not counted).
  std::size_t pending_events() const { return queue_.size() + lane_.size(); }

 private:
  /// The after_ordered events: a FIFO ring, sorted by (time, rank) by
  /// construction, that the simulator registers as its first stream. BH2's
  /// per-terminal decision epochs re-arm here at O(1) per event instead of
  /// a sift through the heap.
  class OrderedLane final : public EventStream {
   public:
    /// True if an event at `t` keeps the lane in time order.
    bool accepts(double t) const { return size_ == 0 || t >= ring_[index(size_ - 1)].time; }
    void push(double t, std::uint64_t rank, std::function<void()> action);
    std::size_t size() const { return size_; }

    double next_time() const override;
    std::uint64_t next_rank() const override { return ring_[head_].rank; }
    void fire() override;

   private:
    struct Entry {
      double time = 0.0;
      std::uint64_t rank = 0;
      std::function<void()> action;
    };

    /// Ring index of the entry `offset` places behind the head.
    std::size_t index(std::size_t offset) const { return (head_ + offset) & (ring_.size() - 1); }

    /// Ring storage; its size is the capacity, a power of two.
    std::vector<Entry> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// Flushes every registered stream if a flush is pending; returns true if
  /// it did (the run loop must then re-evaluate what fires next).
  bool flush_if_pending();

  /// Shared body of run_until / run_until_gated / run_to_completion (see
  /// run_until_gated's contract). Returns true once nothing is left at or
  /// before `end_time`, with the clock at the last dispatched instant.
  bool run_loop(double end_time, bool gated);

  EventQueue queue_;
  OrderedLane lane_;
  std::vector<EventStream*> streams_{&lane_};
  double now_;
  std::uint64_t executed_ = 0;
  bool flush_pending_ = false;
};

}  // namespace insomnia::sim
