// A cancellable discrete-event queue built for allocation-free steady
// state. Scheduled events live in a vector-backed slot pool recycled
// through a free list; the ordering structure is an index-tracked 4-ary
// min-heap of (time, sequence, slot) triples, so cancel and reschedule
// move the node in place — the heap never carries dead entries and
// next_time() is a single array read. EventIds encode (slot, generation):
// a stale handle — one whose slot has been fired, cancelled and reused —
// is recognised and rejected in O(1) without any per-event hash-set
// bookkeeping.
//
// Beside the heap sits an ordered lane: a FIFO ring of events appended in
// non-decreasing time order (periodic self-re-arming timers, e.g. BH2's
// per-terminal decision epochs). Lane events take their rank from the same
// counter as schedule(), and next_time/next_sequence/run_next pop whichever
// head is earlier by (time, sequence), so the merged order is exactly the
// order the same calls would have produced through the heap — at O(1) per
// event instead of a sift through the heap. Lane events cannot be cancelled
// or rescheduled; an out-of-order append throws rather than reorder.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

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

  /// Appends `action` at absolute time `t` to the ordered lane, taking the
  /// next FIFO rank exactly as schedule() would. `t` must not precede the
  /// lane's last time: throws util::InvalidState otherwise, leaving the
  /// queue and its rank counter unchanged. Lane events have no handle.
  void schedule_ordered(double t, std::function<void()> action);

  /// True if no live events remain (heap or lane).
  bool empty() const { return heap_.empty() && lane_size_ == 0; }

  /// Number of live (non-cancelled, unfired) events, lane included.
  std::size_t size() const { return heap_.size() + lane_size_; }

  /// Time of the earliest live event; requires !empty().
  double next_time() const;

  /// FIFO rank of the earliest live event; requires !empty(). Comparable
  /// with ranks from allocate_sequence(): among equal times, lower rank
  /// fires first.
  std::uint64_t next_sequence() const;

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

  /// Ordered-lane entry; the lane is sorted by (time, sequence) by
  /// construction.
  struct LaneEntry {
    double time = 0.0;
    std::uint64_t sequence = 0;
    std::function<void()> action;
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

  /// True if the lane head fires before the heap front.
  bool lane_first() const {
    if (lane_size_ == 0) return false;
    if (heap_.empty()) return true;
    const LaneEntry& head = lane_[lane_head_];
    return earlier(Node{head.time, head.sequence, kNoSlot}, heap_.front());
  }

  /// Ring index of the lane entry `offset` places behind the head.
  std::size_t lane_index(std::size_t offset) const {
    return (lane_head_ + offset) & (lane_.size() - 1);
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
  /// Ring storage for the lane; its size is the capacity, a power of two.
  std::vector<LaneEntry> lane_;
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;
};

}  // namespace insomnia::sim
