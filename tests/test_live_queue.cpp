// The bounded ingest buffer (live/ingest_queue.h): FIFO order, the two
// overflow policies, and the run-length stamp bookkeeping the controller's
// latency accounting depends on (a lost or reordered stamp would corrupt
// the ingest→decision histogram silently). Records go in only through
// poll_from and out only through front/consume, the controller's path.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "live/event_source.h"
#include "live/ingest_queue.h"
#include "trace/records.h"
#include "util/error.h"

namespace insomnia::live {
namespace {

trace::FlowTrace make_records(int n, double t0 = 0.0) {
  trace::FlowTrace records;
  for (int i = 0; i < n; ++i) {
    records.push_back({t0 + static_cast<double>(i), i % 7, 1000.0 + i});
  }
  return records;
}

/// The stamp the queue reads after each poll; tests set it per poll.
std::uint64_t g_stamp = 0;
std::uint64_t test_clock() { return g_stamp; }

/// Hands out a fixed record list in order, up to `max` per poll (the
/// horizon is ignored, as an IO-backed source does). `fail` makes the next
/// poll append its records and then throw without moving on; `lie_by`
/// makes it return a count off by that much from what it appended.
class VectorSource : public EventSource {
 public:
  explicit VectorSource(trace::FlowTrace records) : records_(std::move(records)) {}

  std::size_t poll(double /*horizon*/, std::size_t max, trace::FlowTrace& out) override {
    const std::size_t n = std::min(max, records_.size() - next_);
    out.insert(out.end(), records_.begin() + static_cast<std::ptrdiff_t>(next_),
               records_.begin() + static_cast<std::ptrdiff_t>(next_ + n));
    if (fail) {
      fail = false;
      throw std::runtime_error("source failed mid-poll");
    }
    next_ += n;
    const long returned = static_cast<long>(n) + lie_by;
    lie_by = 0;
    return static_cast<std::size_t>(returned);
  }
  bool exhausted() const override { return next_ == records_.size(); }
  std::string describe() const override { return "vector"; }

  bool fail = false;
  long lie_by = 0;

 private:
  trace::FlowTrace records_;
  std::size_t next_ = 0;
};

/// Polls up to `max` records from `source`, stamped `stamp`.
IngestQueue::Polled poll(IngestQueue& queue, VectorSource& source, std::size_t max,
                         std::uint64_t stamp) {
  g_stamp = stamp;
  return queue.poll_from(source, 0.0, max);
}

/// Consumes up to `max` queued records, copying them to `out` as the
/// controller's drain does.
std::size_t take(IngestQueue& queue, std::size_t max, trace::FlowTrace& out,
                 std::deque<StampRun>& stamps) {
  const std::size_t n = std::min(max, queue.size());
  out.insert(out.end(), queue.front(), queue.front() + n);
  queue.consume(n, stamps);
  return n;
}

TEST(IngestQueue, FifoAcrossBatches) {
  IngestQueue queue(16, OverflowPolicy::kBackpressure, test_clock);
  trace::FlowTrace all = make_records(3, 0.0);
  const trace::FlowTrace b = make_records(2, 10.0);
  all.insert(all.end(), b.begin(), b.end());
  VectorSource source(all);
  EXPECT_EQ(poll(queue, source, 3, 100).taken, 3u);
  EXPECT_EQ(poll(queue, source, 2, 200).taken, 2u);
  EXPECT_EQ(queue.size(), 5u);

  trace::FlowTrace out;
  std::deque<StampRun> stamps;
  EXPECT_EQ(take(queue, 100, out, stamps), 5u);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_DOUBLE_EQ(out[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(out[2].start_time, 2.0);
  EXPECT_DOUBLE_EQ(out[3].start_time, 10.0);
  EXPECT_DOUBLE_EQ(out[4].start_time, 11.0);
  EXPECT_TRUE(queue.empty());
}

TEST(IngestQueue, StampRunsFollowTheirRecords) {
  IngestQueue queue(16, OverflowPolicy::kBackpressure, test_clock);
  VectorSource source(make_records(4));
  poll(queue, source, 3, 111);
  poll(queue, source, 1, 222);

  trace::FlowTrace out;
  std::deque<StampRun> stamps;
  // Consume straddling the run boundary: 2 of the first run...
  EXPECT_EQ(take(queue, 2, out, stamps), 2u);
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_EQ(stamps[0].stamp_ns, 111u);
  EXPECT_EQ(stamps[0].count, 2u);
  // ...then the rest: the leftover of run 1 merges into the caller's tail
  // run (same stamp), run 2 starts fresh.
  EXPECT_EQ(take(queue, 2, out, stamps), 2u);
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_EQ(stamps[0].stamp_ns, 111u);
  EXPECT_EQ(stamps[0].count, 3u);
  EXPECT_EQ(stamps[1].stamp_ns, 222u);
  EXPECT_EQ(stamps[1].count, 1u);
}

TEST(IngestQueue, SameStampBatchesMergeIntoOneRun) {
  IngestQueue queue(16, OverflowPolicy::kBackpressure, test_clock);
  VectorSource source(make_records(4));
  poll(queue, source, 2, 999);
  poll(queue, source, 2, 999);

  trace::FlowTrace out;
  std::deque<StampRun> stamps;
  EXPECT_EQ(take(queue, 4, out, stamps), 4u);
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_EQ(stamps[0].count, 4u);
}

TEST(IngestQueue, DropNewestShedsTheTailAndCounts) {
  IngestQueue queue(3, OverflowPolicy::kDropNewest, test_clock);
  VectorSource source(make_records(5));
  const IngestQueue::Polled polled = poll(queue, source, 5, 42);
  EXPECT_EQ(polled.got, 5u);
  EXPECT_EQ(polled.taken, 3u);
  EXPECT_EQ(queue.accepted(), 3u);
  EXPECT_EQ(queue.dropped(), 2u);
  EXPECT_EQ(queue.free_slots(), 0u);
  // The records the poll reports taken are the queued ones, shed in place.
  EXPECT_EQ(polled.records, queue.front());
  // A full queue sheds a whole batch and stamps nothing.
  VectorSource more(make_records(2, 50.0));
  EXPECT_EQ(poll(queue, more, 2, 43).taken, 0u);
  EXPECT_EQ(queue.dropped(), 4u);
  EXPECT_EQ(queue.size(), 3u);

  trace::FlowTrace out;
  std::deque<StampRun> stamps;
  EXPECT_EQ(take(queue, 10, out, stamps), 3u);
  // The accepted records are exactly the batch HEAD, in order.
  EXPECT_DOUBLE_EQ(out[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(out[2].start_time, 2.0);
  EXPECT_EQ(queue.dropped(), 4u);
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_EQ(stamps[0].stamp_ns, 42u);
  EXPECT_EQ(stamps[0].count, 3u);
}

TEST(IngestQueue, BackpressureOverfillIsACallerBug) {
  IngestQueue queue(3, OverflowPolicy::kBackpressure, test_clock);
  VectorSource source(make_records(5, 0.0));
  poll(queue, source, 1, 7);
  // Asking for more than free_slots() overfills: the poll throws and queues
  // nothing, and the queue still holds exactly what it held.
  EXPECT_THROW(poll(queue, source, 3, 8), util::InvalidState);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.accepted(), 1u);
  EXPECT_EQ(queue.dropped(), 0u);
  EXPECT_EQ(poll(queue, source, queue.free_slots(), 9).taken, 1u);  // the source moved on
  trace::FlowTrace out;
  std::deque<StampRun> stamps;
  EXPECT_EQ(take(queue, 10, out, stamps), 2u);
  EXPECT_DOUBLE_EQ(out[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(out[1].start_time, 4.0);
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_EQ(stamps[0].stamp_ns, 7u);
  EXPECT_EQ(stamps[1].stamp_ns, 9u);
}

TEST(IngestQueue, PollThatThrowsQueuesNothing) {
  IngestQueue queue(8, OverflowPolicy::kBackpressure, test_clock);
  VectorSource source(make_records(6));
  poll(queue, source, 2, 1);
  source.fail = true;  // appends two records, then throws
  EXPECT_THROW(poll(queue, source, 2, 2), std::runtime_error);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.accepted(), 2u);
  // The retried poll picks up where the source is; nothing half-polled
  // lingers in the queue's storage.
  EXPECT_EQ(poll(queue, source, 4, 3).taken, 4u);
  trace::FlowTrace out;
  std::deque<StampRun> stamps;
  EXPECT_EQ(take(queue, 10, out, stamps), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)].start_time, i);
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_EQ(stamps[0].count, 2u);
  EXPECT_EQ(stamps[1].count, 4u);
}

TEST(IngestQueue, SourceCountMismatchQueuesNothing) {
  for (const long lie : {-1L, 1L}) {
    IngestQueue queue(8, OverflowPolicy::kBackpressure, test_clock);
    VectorSource source(make_records(6));
    poll(queue, source, 2, 1);
    source.lie_by = lie;
    EXPECT_THROW(poll(queue, source, 2, 2), util::InvalidState) << "lie " << lie;
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.accepted(), 2u);
    trace::FlowTrace out;
    std::deque<StampRun> stamps;
    EXPECT_EQ(take(queue, 10, out, stamps), 2u);
    EXPECT_DOUBLE_EQ(out[1].start_time, 1.0);
  }
}

TEST(IngestQueue, TracksPeakDepthAcrossPopCycles) {
  IngestQueue queue(8, OverflowPolicy::kBackpressure, test_clock);
  VectorSource source(make_records(8));
  poll(queue, source, 5, 1);
  trace::FlowTrace out;
  std::deque<StampRun> stamps;
  take(queue, 5, out, stamps);
  poll(queue, source, 2, 2);
  EXPECT_EQ(queue.peak_depth(), 5u);
  EXPECT_EQ(queue.accepted(), 7u);
}

TEST(IngestQueue, ConsumePastTheQueuedRecordsThrows) {
  IngestQueue queue(4, OverflowPolicy::kBackpressure, test_clock);
  VectorSource source(make_records(2));
  poll(queue, source, 2, 1);
  std::deque<StampRun> stamps;
  EXPECT_THROW(queue.consume(3, stamps), util::InvalidState);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_TRUE(stamps.empty());
}

TEST(IngestQueue, RejectsZeroCapacity) {
  EXPECT_THROW(IngestQueue(0, OverflowPolicy::kBackpressure), util::InvalidArgument);
}

}  // namespace
}  // namespace insomnia::live
