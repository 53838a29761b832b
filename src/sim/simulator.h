// The discrete-event simulation driver: a clock plus the event queue, with
// absolute and relative scheduling and a bounded run loop.
#pragma once

#include <functional>
#include <utility>

#include "sim/event_queue.h"
#include "util/error.h"

namespace insomnia::sim {

/// An external, already-ordered source of timed events that the run loop
/// interleaves with the queue — e.g. a trace replay whose arrivals are
/// sorted by time and therefore never need to pass through the heap (passed
/// to run_until), or a component that tracks one moving head event of its
/// own (registered with set_event_stream).
///
/// Ordering contract: the head's rank must come from
/// Simulator::allocate_sequence(), taken at the moment the event would
/// otherwise have been schedule()d. Among equal times, the lower rank
/// fires first — the exact FIFO order real schedule() calls would give.
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
};

/// A deferred-work barrier. A component that batches same-instant work (the
/// incremental flow engine coalesces a burst of arrivals into one
/// reallocation pass) registers a hook and calls request_flush() after
/// deferring; the run loop invokes flush() before the clock moves past the
/// current instant, so deferred work can still schedule events at future
/// times without ever being observed late. flush() runs at the instant the
/// work was deferred — deferral is invisible to any event or query.
class FlushHook {
 public:
  virtual ~FlushHook() = default;

  /// Brings all deferred work current. Called with now() unchanged since the
  /// last request_flush(); must leave nothing deferred (it is not re-entered
  /// for work it performs itself, unless request_flush is called again).
  virtual void flush() = 0;
};

/// Discrete-event simulator clock and scheduler.
///
/// Time is in seconds and only moves forward. Callbacks receive no
/// arguments; they capture what they need and may schedule further events.
class Simulator {
 public:
  /// Constructs a simulator whose clock starts at `start_time`.
  explicit Simulator(double start_time = 0.0) : now_(start_time) {}

  /// Current simulation time.
  double now() const { return now_; }

  /// Schedules `action` at absolute time `t` (>= now).
  EventId at(double t, std::function<void()> action);

  /// Schedules `action` `delay` seconds from now (delay >= 0).
  EventId after(double delay, std::function<void()> action);

  /// As after(), but through the queue's ordered lane: the event gets no
  /// handle (it cannot be cancelled) and fires in exactly the order after()
  /// would give it. Every call's `now() + delay` must be non-decreasing, so
  /// use it for one fixed-period self-re-arming family; an out-of-order
  /// time throws util::InvalidState (see EventQueue::schedule_ordered).
  void after_ordered(double delay, std::function<void()> action) {
    util::require(delay >= 0.0, "Simulator::after_ordered needs delay >= 0");
    queue_.schedule_ordered(now_ + delay, std::move(action));
  }

  /// Cancels a pending event; returns true if it was still pending.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Moves a pending event to absolute time `t` (>= now), reusing its
  /// stored closure; returns false if `id` is not pending. Equivalent to
  /// cancel + at with the same callback, minus the allocation.
  bool reschedule(EventId id, double t);

  /// True if `id` is scheduled and has not yet fired or been cancelled.
  bool is_pending(EventId id) const { return queue_.is_pending(id); }

  /// Runs events in order until the queue (and the registered stream, see
  /// set_event_stream) empties or the next event lies beyond `end_time`; the
  /// clock finishes exactly at `end_time`.
  void run_until(double end_time) { run_until(end_time, nullptr); }

  /// As run_until, additionally interleaving `stream`'s events (may be
  /// nullptr) in exact (time, rank) order with the queued and registered
  /// ones.
  void run_until(double end_time, EventStream* stream);

  /// As run_until(end_time, stream), but pauses when the next event to fire
  /// is the stream head and stream->ready() is false: returns false with the
  /// clock still at the last dispatched instant (it does NOT jump to
  /// end_time) so the caller can extend the stream and resume. Returns true
  /// once end_time is reached. A sequence of gated calls that always resumes
  /// executes exactly the events a single run_until would, in the same
  /// order.
  bool run_until_gated(double end_time, EventStream* stream);

  /// Consumes the next FIFO rank for an EventStream head (see EventStream).
  std::uint64_t allocate_sequence() { return queue_.allocate_sequence(); }

  /// Runs all remaining events, the registered stream's included (use only
  /// when the event set is finite); the clock finishes at the last event.
  void run_to_completion();

  /// Registers (or clears, with nullptr) a stream the run loop merges into
  /// every run — run_until, run_until_gated and run_to_completion — by
  /// (time, rank), never gated. A component whose events form one moving
  /// head (the incremental flow engine's next completion) keeps it here
  /// instead of in the heap. At most one at a time, as with the flush hook.
  void set_event_stream(EventStream* stream) {
    util::require_state(stream == nullptr || registered_ == nullptr,
                        "Simulator already has a registered event stream");
    registered_ = stream;
  }

  const EventStream* event_stream() const { return registered_; }

  /// Registers (or clears, with nullptr) the deferred-work barrier. At most
  /// one hook at a time: registering a hook while another is set throws
  /// util::InvalidState. The owner must clear it before being destroyed.
  void set_flush_hook(FlushHook* hook) {
    util::require_state(hook == nullptr || hook_ == nullptr,
                        "Simulator already has a flush hook");
    hook_ = hook;
  }

  const FlushHook* flush_hook() const { return hook_; }

  /// Asks the run loop to call the hook's flush() before the clock next
  /// moves past the current instant (and before run_until/run_to_completion
  /// return). Cheap and idempotent.
  void request_flush() { flush_pending_ = true; }

  /// Number of events executed so far.
  std::uint64_t executed_events() const { return executed_; }

  /// Number of pending queued events (a registered stream's head is not
  /// counted).
  std::size_t pending_events() const { return queue_.size(); }

 private:
  /// Runs the hook's flush() if one is pending; returns true if it ran (the
  /// run loop must then re-evaluate what fires next).
  bool flush_if_pending();

  /// Shared body of run_until / run_until_gated / run_to_completion (see
  /// run_until_gated's contract). Returns true once nothing is left at or
  /// before `end_time`, with the clock at the last dispatched instant.
  bool run_loop(double end_time, EventStream* stream, bool gated);

  EventQueue queue_;
  double now_;
  std::uint64_t executed_ = 0;
  FlushHook* hook_ = nullptr;
  EventStream* registered_ = nullptr;
  bool flush_pending_ = false;
};

}  // namespace insomnia::sim
