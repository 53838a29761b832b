// A cancellable discrete-event queue built for allocation-free steady
// state. Scheduled events live in a vector-backed slot pool recycled
// through a free list; the ordering structure is an index-tracked 4-ary
// min-heap of (time, sequence, slot) triples, so cancel and reschedule
// move the node in place — the heap never carries dead entries and
// next_time() is a single array read. EventIds encode (slot, generation):
// a stale handle — one whose slot has been fired, cancelled and reused —
// is recognised and rejected in O(1) without any per-event hash-set
// bookkeeping. Pre-ordered event families bypass the heap as
// Simulator-registered EventStreams that rank from the same counter
// (allocate_sequence).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/error.h"

namespace insomnia::sim {

/// Identifies a scheduled event; can be used to cancel it before it fires.
/// Encodes a pool slot plus a generation stamp (never 0 for a live event).
using EventId = std::uint64_t;

/// Sentinel meaning "no event".
inline constexpr EventId kInvalidEventId = 0;

/// Min-heap of timed callbacks with stable FIFO ordering among equal times.
class EventQueue {
 public:
  /// Schedules `action` at absolute time `t`; returns a cancellation handle.
  EventId schedule(double t, std::function<void()> action);

  /// Cancels a pending event. Returns true if the event existed and had not
  /// yet fired; cancelling an already-fired or invalid id returns false.
  /// The entry leaves the heap immediately: next_time() never reports a
  /// cancelled event's time, even when the minimum is cancelled.
  bool cancel(EventId id);

  /// Moves a pending event to absolute time `t`, keeping its stored closure
  /// (no allocation, no handle change). Ordering is as if the event were
  /// cancelled and rescheduled: among equal times it fires after everything
  /// already queued. Returns false if `id` is not pending.
  bool reschedule(EventId id, double t);

  /// True if `id` is scheduled and not yet fired or cancelled.
  bool is_pending(EventId id) const { return lookup(id) != nullptr; }

  /// True if no live events remain.
  bool empty() const { return heap_.empty(); }

  /// Number of live (non-cancelled, unfired) events.
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest live event; requires !empty().
  double next_time() const {
    util::require_state(!empty(), "next_time on empty EventQueue");
    return heap_.front().time;
  }

  /// FIFO rank of the earliest live event; requires !empty(). Comparable
  /// with ranks from allocate_sequence(): among equal times, lower rank
  /// fires first.
  std::uint64_t next_sequence() const {
    util::require_state(!empty(), "next_sequence on empty EventQueue");
    return heap_.front().sequence;
  }

  /// Consumes and returns the next FIFO rank without scheduling anything.
  /// Lets a caller interleave an external pre-ordered event stream (see
  /// Simulator::EventStream) with exactly the ordering its events would
  /// have had as real schedule() calls made at this moment.
  std::uint64_t allocate_sequence() { return next_sequence_++; }

  /// Pops and runs the earliest live event; requires !empty().
  /// Returns the time at which the event fired.
  double run_next();

 private:
  /// One pool slot. `generation` advances every time the slot is freed so
  /// stale EventIds stop matching once the slot is reused; `heap_index` is
  /// the position of the slot's node in heap_ while the event is pending.
  struct Slot {
    std::function<void()> action;
    std::uint32_t generation = 1;
    bool live = false;
    std::uint32_t heap_index = 0;
    std::uint32_t next_free = kNoSlot;
  };

  /// Heap node; 24 bytes, moved freely without touching the closures.
  /// `sequence` makes the (time, sequence) key unique and FIFO among equal
  /// times.
  struct Node {
    double time;
    std::uint64_t sequence;
    std::uint32_t slot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// 4-ary heap: shallower than binary for the same size, and the 4-child
  /// min scan stays within one cache line of nodes.
  static constexpr std::size_t kHeapArity = 4;

  static EventId encode(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }

  static bool earlier(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.sequence < b.sequence;
  }

  /// Slot behind a live id, or nullptr for stale/invalid ids.
  const Slot* lookup(EventId id) const;
  Slot* lookup(EventId id);

  /// Claims a pool slot (free list first) and returns its index.
  std::uint32_t acquire_slot();

  /// Marks a slot dead and recycles it onto the free list.
  void release_slot(std::uint32_t slot);

  /// Writes `node` at heap position `index` and records the position.
  void place(std::size_t index, const Node& node) {
    heap_[index] = node;
    slots_[node.slot].heap_index = static_cast<std::uint32_t>(index);
  }

  /// Moves the node at `index` toward the root / the leaves until the heap
  /// property holds again.
  void sift_up(std::size_t index);
  void sift_down(std::size_t index);

  /// Removes the node at heap position `index` (swap-with-last + sift).
  void heap_remove(std::size_t index);

  std::vector<Slot> slots_;
  std::vector<Node> heap_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace insomnia::sim
