// The discrete-event simulation driver: a clock plus the event queue, with
// absolute and relative scheduling and a bounded run loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/event_queue.h"

namespace insomnia::sim {

class Simulator;

/// An already-ordered source of timed events that the run loop interleaves
/// with the queue without its events ever entering the heap — e.g. a trace
/// replay whose arrivals are sorted by time, or a component that tracks one
/// moving head event of its own. Registered with
/// Simulator::add_event_stream.
///
/// The stream publishes its head — the (time, rank) of its next event,
/// +infinity when it has none — through Simulator::set_stream_head each
/// time the head changes. The simulator keeps every registered head in one
/// array, so picking the next event compares doubles and never calls into
/// a stream; only the stream that fires is called.
///
/// Ordering contract: the head's rank must come from
/// Simulator::allocate_sequence(), taken at the moment the event would
/// otherwise have been schedule()d. Among equal times, the lower rank
/// fires first — the exact FIFO order real schedule() calls would give —
/// so the order streams were registered in never matters.
class EventStream {
 public:
  EventStream() = default;
  virtual ~EventStream() = default;

  // A registered stream is known to its simulator by address, and its
  // registration lives in it: a copy would share the original's slot.
  EventStream(const EventStream&) = delete;
  EventStream& operator=(const EventStream&) = delete;

  /// Fires the head event and advances the stream (publishing its next
  /// head, or +infinity).
  virtual void fire() = 0;

  /// Gate consulted by run_until_gated at the instant the head would fire:
  /// false pauses the run loop so the producer can extend the stream
  /// first. Live replay uses this to hold the last buffered arrival back
  /// until its successor is known — the successor's FIFO rank is claimed
  /// while the head is processed, so firing early would claim it at a later
  /// point in the event order than an offline replay would (run_until
  /// ignores the gate). Default: always ready.
  virtual bool ready() const { return true; }

  /// The deferred-work barrier. A stream that batches same-instant work (the
  /// incremental flow engine coalesces a burst of arrivals into one
  /// reallocation pass) calls Simulator::request_flush() after deferring;
  /// the run loop then flushes every registered stream, in registration
  /// order, before the clock moves past the current instant, so deferred
  /// work can still arm events at future times without ever being
  /// observed late. Called with now() unchanged since the request;
  /// must leave nothing deferred (it is not re-entered for work it performs
  /// itself, unless request_flush is called again). Default: nothing
  /// deferred.
  virtual void flush() {}

  /// The head last published (+infinity time when none).
  double head_time() const { return head_time_; }
  std::uint64_t head_rank() const { return head_rank_; }

 private:
  friend class Simulator;

  static constexpr std::size_t kUnregistered = SIZE_MAX;

  // The stream's own copy of its published head, kept while it is not
  // registered so that a later registration starts from it.
  double head_time_ = std::numeric_limits<double>::infinity();
  std::uint64_t head_rank_ = 0;
  Simulator* owner_ = nullptr;        ///< simulator it is registered with
  std::size_t slot_ = kUnregistered;  ///< its index in the owner's head array
};

/// Receives the ordered lane's events (Simulator::after_ordered): one
/// handler, bound once, gets every lane event's tag.
class OrderedHandler {
 public:
  virtual void on_ordered(std::uint64_t tag) = 0;

 protected:
  ~OrderedHandler() = default;
};

/// Discrete-event simulator clock and scheduler.
///
/// Time is in seconds and only moves forward. Callbacks receive no
/// arguments; they capture what they need and may schedule further events.
class Simulator {
 public:
  /// Constructs a simulator whose clock starts at `start_time`.
  explicit Simulator(double start_time = 0.0) : now_(start_time) {}

  // Registered streams are held by address and point back at their owner.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  double now() const { return now_; }

  /// Schedules `action` at absolute time `t` (>= now).
  EventId at(double t, std::function<void()> action);

  /// Schedules `action` `delay` seconds from now (delay >= 0).
  EventId after(double delay, std::function<void()> action);

  /// Binds the handler that receives every ordered-lane event. Rebinding
  /// to a different handler while lane events are pending throws
  /// util::InvalidState (they were tagged for the old one).
  void set_ordered_handler(OrderedHandler* handler);

  /// As after(), but through the ordered lane: the event carries only
  /// `tag`, which the bound OrderedHandler receives when it fires; it gets
  /// no handle (it cannot be cancelled) and fires in exactly the order
  /// after() would give it. Every call's `now() + delay` must be
  /// non-decreasing, so use it for one fixed-period self-re-arming family;
  /// an out-of-order time, or no bound handler, throws util::InvalidState,
  /// leaving the lane and the rank counter unchanged.
  void after_ordered(double delay, std::uint64_t tag);

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

  /// As run_until, but pauses when the next event to fire is the head of a
  /// registered stream whose ready() is false: returns
  /// false with the clock still at the last dispatched instant (it does NOT
  /// jump to end_time) so the caller can extend the stream and resume.
  /// Returns true once end_time is reached. A sequence of gated calls that
  /// always resumes executes exactly the events a single run_until would,
  /// in the same order.
  bool run_until_gated(double end_time);

  /// Consumes the next FIFO rank for an EventStream head (see EventStream).
  std::uint64_t allocate_sequence() { return queue_.allocate_sequence(); }

  /// Runs all remaining events, the registered streams' included (use only
  /// when the event set is finite); the clock finishes at the last event.
  void run_to_completion();

  /// Registers a stream the run loop merges with the queue by (time, rank)
  /// in every run, starting from the head it last published; a requested
  /// flush reaches the streams in registration order. A stream belongs to
  /// at most one simulator at a time: registering one that is already
  /// registered (here or elsewhere) throws util::InvalidState. The stream
  /// must be removed before it is destroyed unless the simulator goes first.
  void add_event_stream(EventStream* stream);

  /// Unregisters a stream; throws util::InvalidState if it is not
  /// registered.
  void remove_event_stream(EventStream* stream);

  /// Publishes `stream`'s head: its next event fires at `time` (+infinity:
  /// none) with FIFO rank `rank`. Registered or not — a later registration
  /// starts from it — and to whichever simulator holds it.
  static void set_stream_head(EventStream& stream, double time, std::uint64_t rank) {
    stream.head_time_ = time;
    stream.head_rank_ = rank;
    if (stream.owner_ != nullptr) stream.owner_->heads_[stream.slot_] = Head{time, rank};
  }

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
  /// A (time, rank) head of the lane or of a registered stream.
  struct Head {
    double time;
    std::uint64_t rank;
  };

  /// The after_ordered events: a FIFO ring of {time, rank, tag}, sorted by
  /// (time, rank) by construction. BH2's per-terminal decision epochs
  /// re-arm here at O(1) per event instead of a sift through the heap, with
  /// no closure to store or call.
  class OrderedLane {
   public:
    struct Entry {
      double time = 0.0;
      std::uint64_t rank = 0;
      std::uint64_t tag = 0;
    };

    /// True if an event at `t` keeps the lane in time order.
    bool accepts(double t) const { return size_ == 0 || t >= ring_[index(size_ - 1)].time; }
    void push(const Entry& entry);
    /// Removes and returns the head entry; requires size() > 0.
    Entry pop();
    /// The head entry; requires size() > 0.
    const Entry& front() const { return ring_[head_]; }
    std::size_t size() const { return size_; }

   private:
    /// Ring index of the entry `offset` places behind the head.
    std::size_t index(std::size_t offset) const { return (head_ + offset) & (ring_.size() - 1); }

    /// Ring storage; its size is the capacity, a power of two.
    std::vector<Entry> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// heads_ slot of the lane; registered streams take the slots after it.
  static constexpr std::size_t kLaneSlot = 0;

  /// Republishes the lane's head into heads_[kLaneSlot].
  void publish_lane_head();

  /// Pops the lane's head and hands its tag to the bound handler.
  void fire_lane();

  /// Flushes every registered stream, in registration order, if a flush
  /// was requested; returns true if it was (the run loop must then
  /// re-evaluate what fires next).
  bool flush_if_pending();

  /// Shared body of run_until / run_until_gated / run_to_completion (see
  /// run_until_gated's contract). Returns true once nothing is left at or
  /// before `end_time`, with the clock at the last dispatched instant.
  bool run_loop(double end_time, bool gated);

  EventQueue queue_;
  OrderedLane lane_;
  OrderedHandler* ordered_handler_ = nullptr;
  /// Slot i's head: the lane's at kLaneSlot, registered streams' after it.
  std::vector<Head> heads_{Head{std::numeric_limits<double>::infinity(), 0}};
  /// Slot i's stream (nullptr for the lane).
  std::vector<EventStream*> streams_{nullptr};
  double now_;
  std::uint64_t executed_ = 0;
  bool flush_pending_ = false;
};

}  // namespace insomnia::sim
