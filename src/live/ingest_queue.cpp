#include "live/ingest_queue.h"

#include <algorithm>

#include "util/error.h"

namespace insomnia::live {

IngestQueue::IngestQueue(std::size_t capacity, OverflowPolicy policy, Clock clock)
    : capacity_(capacity), policy_(policy), clock_(clock) {
  util::require(capacity >= 1, "ingest queue needs capacity >= 1");
}

IngestQueue::Polled IngestQueue::poll_from(EventSource& source, double horizon,
                                           std::size_t max) {
  const std::size_t first = records_.size();
  Polled polled;
  try {
    polled.got = source.poll(horizon, max, records_);
  } catch (...) {
    records_.resize(first);  // a failed poll queues nothing
    throw;
  }
  if (records_.size() != first + polled.got) {
    records_.resize(first);
    util::require_state(false, "event source appended a different count than it returned");
  }
  polled.records = records_.data() + first;
  if (polled.got == 0) return polled;

  // Shed (kDropNewest) or refuse (kBackpressure) the batch tail past
  // capacity, then stamp what stayed as one run.
  const std::size_t room = capacity_ - (first - head_);
  polled.taken = std::min(polled.got, room);
  if (polled.taken < polled.got) {
    if (policy_ != OverflowPolicy::kDropNewest) {
      records_.resize(first);
      util::require_state(false,
                          "backpressure ingest queue overfilled — poll must honour "
                          "free_slots()");
    }
    dropped_ += polled.got - polled.taken;
    records_.resize(first + polled.taken);
  }
  if (polled.taken == 0) return polled;
  const std::uint64_t stamp_ns = clock_();
  if (!stamps_.empty() && stamps_.back().stamp_ns == stamp_ns) {
    stamps_.back().count += static_cast<std::uint32_t>(polled.taken);
  } else {
    stamps_.push_back({stamp_ns, static_cast<std::uint32_t>(polled.taken)});
  }
  accepted_ += polled.taken;
  peak_depth_ = std::max(peak_depth_, size());
  return polled;
}

void IngestQueue::consume(std::size_t count, std::deque<StampRun>& stamps) {
  util::require_state(count <= size(), "IngestQueue::consume past the queued records");
  head_ += count;
  std::size_t remaining = count;
  while (remaining > 0) {
    StampRun& head = stamps_.front();
    const std::uint32_t slice =
        static_cast<std::uint32_t>(std::min<std::size_t>(remaining, head.count));
    if (!stamps.empty() && stamps.back().stamp_ns == head.stamp_ns) {
      stamps.back().count += slice;
    } else {
      stamps.push_back({head.stamp_ns, slice});
    }
    head.count -= slice;
    if (head.count == 0) stamps_.pop_front();
    remaining -= slice;
  }
  // Reclaim the consumed prefix once it outnumbers what is still queued: a
  // full drain (the controller's case) just resets, keeping the capacity.
  if (head_ >= size()) {
    records_.erase(records_.begin(), records_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

}  // namespace insomnia::live
