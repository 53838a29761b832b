#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace insomnia::sim {

const EventQueue::Slot* EventQueue::lookup(EventId id) const {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto generation = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (slot >= slots_.size()) return nullptr;
  const Slot& entry = slots_[slot];
  if (!entry.live || entry.generation != generation) return nullptr;
  return &entry;
}

EventQueue::Slot* EventQueue::lookup(EventId id) {
  return const_cast<Slot*>(static_cast<const EventQueue*>(this)->lookup(id));
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& entry = slots_[slot];
  entry.live = false;
  entry.action = nullptr;  // drop captured state promptly
  // Advance the generation so stale ids for this slot stop matching; skip 0
  // on wraparound, keeping encoded ids distinct from kInvalidEventId.
  if (++entry.generation == 0) entry.generation = 1;
  entry.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::sift_up(std::size_t index) {
  const Node node = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / kHeapArity;
    if (!earlier(node, heap_[parent])) break;
    place(index, heap_[parent]);
    index = parent;
  }
  place(index, node);
}

void EventQueue::sift_down(std::size_t index) {
  const Node node = heap_[index];
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first_child = index * kHeapArity + 1;
    if (first_child >= size) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + kHeapArity, size);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], node)) break;
    place(index, heap_[best]);
    index = best;
  }
  place(index, node);
}

void EventQueue::heap_remove(std::size_t index) {
  const Node moved = heap_.back();
  heap_.pop_back();
  if (index == heap_.size()) return;  // removed the physically last node
  place(index, moved);
  sift_up(index);
  sift_down(slots_[moved.slot].heap_index);
}

EventId EventQueue::schedule(double t, std::function<void()> action) {
  const std::uint32_t slot = acquire_slot();
  Slot& entry = slots_[slot];
  entry.live = true;
  entry.action = std::move(action);
  heap_.push_back(Node{t, next_sequence_++, slot});
  sift_up(heap_.size() - 1);
  return encode(slot, entry.generation);
}

bool EventQueue::cancel(EventId id) {
  Slot* entry = lookup(id);
  if (entry == nullptr) return false;
  const std::size_t index = entry->heap_index;
  release_slot(static_cast<std::uint32_t>(entry - slots_.data()));
  heap_remove(index);
  return true;
}

bool EventQueue::reschedule(EventId id, double t) {
  Slot* entry = lookup(id);
  if (entry == nullptr) return false;
  // A fresh sequence keeps cancel+schedule's FIFO position among equal
  // times; the node moves in place — no allocation, no orphaned entries.
  const std::size_t index = entry->heap_index;
  heap_[index].time = t;
  heap_[index].sequence = next_sequence_++;
  sift_up(index);
  sift_down(entry->heap_index);  // position kept current by sift_up
  return true;
}

double EventQueue::run_next() {
  util::require_state(!empty(), "run_next on empty EventQueue");
  const Node top = heap_.front();
  heap_remove(0);
  // Move the action out before releasing so the callback may schedule into
  // (and reuse) this very slot — and because new schedules may relocate the
  // slot pool while the callback runs.
  std::function<void()> action = std::move(slots_[top.slot].action);
  release_slot(top.slot);
  action();
  return top.time;
}

}  // namespace insomnia::sim
