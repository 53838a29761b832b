#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "util/error.h"

namespace insomnia::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(7.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(kInvalidEventId));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.run_next();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, IsPendingTracksLifecycle) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.is_pending(id));
  q.run_next();
  EXPECT_FALSE(q.is_pending(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule(1.0, [&] {
    fired.push_back(1.0);
    q.schedule(2.0, [&] { fired.push_back(2.0); });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
}

TEST(EventQueue, CallbackMayCancelLaterEvent) {
  EventQueue q;
  bool second_ran = false;
  EventId second = kInvalidEventId;
  q.schedule(1.0, [&] { q.cancel(second); });
  second = q.schedule(2.0, [&] { second_ran = true; });
  while (!q.empty()) q.run_next();
  EXPECT_FALSE(second_ran);
}

TEST(EventQueue, CancelOfMinImmediatelyUpdatesNextTime) {
  // Pin: cancelling the earliest event must not leave a dead node shadowing
  // next_time() — the minimum is cleaned up on cancel, not at the next pop.
  EventQueue q;
  const EventId first = q.schedule(1.0, [] {});
  const EventId second = q.schedule(2.0, [] {});
  q.schedule(5.0, [] {});
  EXPECT_TRUE(q.cancel(first));
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  EXPECT_TRUE(q.cancel(second));
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.run_next(), 5.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdAfterSlotReuseIsRejected) {
  EventQueue q;
  // Cancel frees the slot; the next schedule reuses it under a fresh
  // generation, so the stale handle must stop matching.
  const EventId cancelled = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(cancelled));
  bool reuse_ran = false;
  const EventId reuse = q.schedule(2.0, [&] { reuse_ran = true; });
  EXPECT_NE(cancelled, reuse);
  EXPECT_FALSE(q.is_pending(cancelled));
  EXPECT_FALSE(q.cancel(cancelled));  // stale handle, slot now reused
  EXPECT_TRUE(q.is_pending(reuse));
  q.run_next();
  EXPECT_TRUE(reuse_ran);

  // Firing frees the slot too: a handle to a fired event must not cancel
  // whatever reuses its slot.
  const EventId fired = q.schedule(3.0, [] {});
  q.run_next();
  const EventId next_tenant = q.schedule(4.0, [] {});
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_TRUE(q.is_pending(next_tenant));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, RescheduleMovesEventKeepingClosure) {
  EventQueue q;
  std::vector<int> order;
  const EventId moved = q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_TRUE(q.reschedule(moved, 3.0));
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);  // the old minimum moved away
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RescheduleToEqualTimeFiresAfterExistingEvents) {
  // Ordering contract: reschedule behaves like cancel + schedule, so among
  // equal times the moved event goes to the back of the FIFO.
  EventQueue q;
  std::vector<int> order;
  const EventId moved = q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(5.0, [&] { order.push_back(2); });
  q.schedule(5.0, [&] { order.push_back(3); });
  EXPECT_TRUE(q.reschedule(moved, 5.0));
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(EventQueue, RescheduleInvalidOrFiredReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.reschedule(kInvalidEventId, 1.0));
  const EventId fired = q.schedule(1.0, [] {});
  q.run_next();
  EXPECT_FALSE(q.reschedule(fired, 2.0));
  const EventId cancelled = q.schedule(1.0, [] {});
  q.cancel(cancelled);
  EXPECT_FALSE(q.reschedule(cancelled, 2.0));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleEarlierBecomesNewMin) {
  EventQueue q;
  q.schedule(4.0, [] {});
  const EventId late = q.schedule(9.0, [] {});
  EXPECT_TRUE(q.reschedule(late, 1.0));
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_DOUBLE_EQ(q.run_next(), 1.0);
  EXPECT_DOUBLE_EQ(q.next_time(), 4.0);
}

TEST(EventQueue, RunNextOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.run_next(), util::InvalidState);
  EXPECT_THROW(q.next_time(), util::InvalidState);
}

TEST(EventQueue, ReturnsFiringTime) {
  EventQueue q;
  q.schedule(4.5, [] {});
  EXPECT_DOUBLE_EQ(q.run_next(), 4.5);
}

}  // namespace
}  // namespace insomnia::sim
