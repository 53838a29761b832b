#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "util/error.h"

namespace insomnia::sim {
namespace {

TEST(Simulator, ClockAdvancesToEndTime) {
  Simulator sim;
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

// Regression: callbacks must observe now() equal to their own firing time
// (an early version updated the clock only after dispatch, corrupting every
// time series written from callbacks).
TEST(Simulator, CallbackSeesItsOwnFiringTime) {
  Simulator sim;
  std::vector<double> observed;
  sim.at(5.0, [&] { observed.push_back(sim.now()); });
  sim.at(2.0, [&] { observed.push_back(sim.now()); });
  sim.run_until(10.0);
  EXPECT_EQ(observed, (std::vector<double>{2.0, 5.0}));
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.at(3.0, [&] { sim.after(4.0, [&] { fired_at = sim.now(); }); });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 7.0);
}

TEST(Simulator, EventsBeyondHorizonStayPending) {
  Simulator sim;
  bool ran = false;
  sim.at(50.0, [&] { ran = true; });
  sim.run_until(10.0);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(60.0);
  EXPECT_TRUE(ran);
}

TEST(Simulator, CannotScheduleInThePast) {
  Simulator sim;
  sim.run_until(10.0);
  EXPECT_THROW(sim.at(5.0, [] {}), util::InvalidArgument);
  EXPECT_THROW(sim.after(-1.0, [] {}), util::InvalidArgument);
}

TEST(Simulator, CannotRewind) {
  Simulator sim;
  sim.run_until(10.0);
  EXPECT_THROW(sim.run_until(5.0), util::InvalidArgument);
}

TEST(Simulator, CancelPendingEvent) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.at(5.0, [&] { ran = true; });
  EXPECT_TRUE(sim.is_pending(id));
  EXPECT_TRUE(sim.cancel(id));
  sim.run_until(10.0);
  EXPECT_FALSE(ran);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.at(static_cast<double>(i), [] {});
  sim.run_until(10.0);
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, RunToCompletionDrainsEverything) {
  Simulator sim;
  int count = 0;
  sim.at(1.0, [&] {
    ++count;
    sim.after(1.0, [&] { ++count; });
  });
  sim.run_to_completion();
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, StartTimeRespected) {
  Simulator sim(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
  EXPECT_THROW(sim.at(50.0, [] {}), util::InvalidArgument);
}

TEST(Simulator, ChainedSameTimeEventsRunSameInstant) {
  Simulator sim;
  std::vector<double> times;
  sim.at(4.0, [&] {
    times.push_back(sim.now());
    sim.after(0.0, [&] { times.push_back(sim.now()); });
  });
  sim.run_until(4.0);
  EXPECT_EQ(times, (std::vector<double>{4.0, 4.0}));
}

/// The ordered lane's handler for tests: each lane event's tag indexes a
/// table of callbacks registered with add().
class LaneActions : public OrderedHandler {
 public:
  explicit LaneActions(Simulator& sim) { sim.set_ordered_handler(this); }

  /// Registers `action`; returns the tag that runs it.
  std::uint64_t add(std::function<void()> action) {
    actions_.push_back(std::move(action));
    return actions_.size() - 1;
  }
  void on_ordered(std::uint64_t tag) override { actions_[static_cast<std::size_t>(tag)](); }

 private:
  std::vector<std::function<void()>> actions_;
};

/// Records the tags the lane delivers.
class TagLog : public OrderedHandler {
 public:
  void on_ordered(std::uint64_t tag) override { tags.push_back(tag); }
  std::vector<std::uint64_t> tags;
};

TEST(Simulator, AfterOrderedRejectsNegativeDelay) {
  Simulator sim;
  TagLog handler;
  sim.set_ordered_handler(&handler);
  EXPECT_THROW(sim.after_ordered(-1.0, 0), util::InvalidArgument);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.after_ordered(2.0, 0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, AfterOrderedNeedsABoundHandler) {
  Simulator sim;
  EXPECT_THROW(sim.after_ordered(1.0, 7), util::InvalidState);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.allocate_sequence(), 0u);  // the refused append burned no rank
  TagLog first;
  TagLog second;
  sim.set_ordered_handler(&first);
  sim.after_ordered(1.0, 7);
  sim.after_ordered(2.0, 8);
  // Pending events were tagged for the first handler: no switching now.
  EXPECT_THROW(sim.set_ordered_handler(&second), util::InvalidState);
  sim.set_ordered_handler(&first);  // rebinding the same handler is a no-op
  sim.run_to_completion();
  EXPECT_EQ(first.tags, (std::vector<std::uint64_t>{7, 8}));
  sim.set_ordered_handler(&second);  // an empty lane may change hands
  sim.after_ordered(1.0, 9);
  sim.run_to_completion();
  EXPECT_EQ(second.tags, (std::vector<std::uint64_t>{9}));
}

TEST(Simulator, LaneDeliversTagsToTheBoundHandler) {
  // Tags are opaque 64-bit values; the handler gets each exactly once, in
  // (time, rank) order.
  Simulator sim;
  TagLog handler;
  sim.set_ordered_handler(&handler);
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  sim.after_ordered(1.0, big);
  sim.after_ordered(1.0, 0);
  sim.after_ordered(3.0, 42);
  sim.run_until(2.0);
  EXPECT_EQ(handler.tags, (std::vector<std::uint64_t>{big, 0}));
  sim.run_to_completion();
  EXPECT_EQ(handler.tags, (std::vector<std::uint64_t>{big, 0, 42}));
}

TEST(Simulator, LaneMergesWithHeapByTimeThenRank) {
  Simulator sim;
  LaneActions lane(sim);
  std::vector<int> order;
  sim.at(5.0, [&] { order.push_back(0); });
  sim.after_ordered(5.0, lane.add([&] { order.push_back(1); }));
  sim.at(5.0, [&] { order.push_back(2); });
  sim.after_ordered(7.0, lane.add([&] { order.push_back(3); }));
  sim.at(6.0, [&] { order.push_back(4); });
  EXPECT_EQ(sim.pending_events(), 5u);
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 3}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, OutOfOrderLaneAppendThrowsAndLeavesQueueUnchanged) {
  Simulator sim;
  LaneActions lane(sim);
  std::vector<double> fired;
  const auto log = [&] { fired.push_back(sim.now()); };
  const std::uint64_t log_tag = lane.add(log);
  sim.at(3.0, log);
  sim.after_ordered(10.0, log_tag);
  sim.after_ordered(10.0, log_tag);  // ties are in order
  sim.run_until(2.0);
  EXPECT_THROW(sim.after_ordered(7.5, log_tag), util::InvalidState);
  EXPECT_EQ(sim.pending_events(), 3u);
  // The refused append burned no rank.
  EXPECT_EQ(sim.allocate_sequence(), 3u);
  sim.run_to_completion();
  EXPECT_EQ(fired, (std::vector<double>{3.0, 10.0, 10.0}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, SelfRearmingLaneMatchesHeapOnlyOrder) {
  // Forty periodic timers re-arm from their own callbacks (growing and
  // wrapping the lane's ring) amid one-shot heap events at tied times. The
  // lane run must fire everything in exactly the heap-only order.
  /// Lane events tagged with their timer.
  struct TimerLane : OrderedHandler {
    std::function<void(int)>* tick = nullptr;
    void on_ordered(std::uint64_t tag) override { (*tick)(static_cast<int>(tag)); }
  };
  const auto run = [](bool use_lane) {
    Simulator sim;
    std::vector<std::pair<double, int>> log;
    std::vector<double> next(40);
    TimerLane lane;
    sim.set_ordered_handler(&lane);
    std::function<void(int)> tick = [&](int timer) {
      log.emplace_back(next[static_cast<std::size_t>(timer)], timer);
      double& t = next[static_cast<std::size_t>(timer)];
      t += 4.0;
      if (t > 200.0) return;
      if (use_lane) {
        sim.after_ordered(4.0, static_cast<std::uint64_t>(timer));
      } else {
        sim.at(t, [&tick, timer] { tick(timer); });
      }
      if (timer % 7 == 0) {
        sim.at(t, [&log, t] { log.emplace_back(t, -1); });
      }
    };
    lane.tick = &tick;
    for (int timer = 0; timer < 40; ++timer) {
      next[static_cast<std::size_t>(timer)] = static_cast<double>(timer % 4);
      sim.at(next[static_cast<std::size_t>(timer)], [&tick, timer] { tick(timer); });
    }
    sim.run_to_completion();
    return log;
  };
  const auto heap_only = run(false);
  EXPECT_GT(heap_only.size(), 40u * 50u);
  EXPECT_EQ(run(true), heap_only);
}

/// A stream whose events every 5 s claim their successor's rank as they
/// fire, the way trace arrivals do. With `gate` set, each head is held back
/// once (ready() is false until the caller reopens the gate), like a live
/// source waiting for the next record.
class TickStream : public EventStream {
 public:
  TickStream(Simulator& sim, std::vector<std::string>& log, bool gate)
      : sim_(sim), log_(log), gate_(gate) {}

  void claim_first() { publish(sim_.allocate_sequence()); }
  void fire() override {
    log_.push_back("S" + std::to_string(static_cast<int>(sim_.now())));
    time_ += 5.0;
    publish(sim_.allocate_sequence());
    open_ = false;
  }
  bool ready() const override { return !gate_ || open_; }
  void open() { open_ = true; }

 private:
  void publish(std::uint64_t rank) {
    sim_.set_stream_head(*this, time_ <= 15.0 ? time_ : std::numeric_limits<double>::infinity(),
                         rank);
  }

  Simulator& sim_;
  std::vector<std::string>& log_;
  bool gate_;
  bool open_ = false;
  double time_ = 5.0;
};

TEST(Simulator, LaneAndStreamTiesFireInRankOrder) {
  // A 5 s lane timer and the stream tie at 5, 10 and 15. Whichever claimed
  // its rank first at setup stays first at every tie, because each re-arms
  // (lane) or claims its successor (stream) when it fires.
  for (const bool lane_first : {true, false}) {
    for (const bool gated : {false, true}) {
      Simulator sim;
      std::vector<std::string> log;
      // A heap event beyond the horizon holds the lowest rank, so a merge
      // that reported the heap's rank for the lane's head would misorder
      // every tie.
      sim.at(100.0, [] {});
      TickStream stream(sim, log, gated);
      LaneActions lane(sim);
      const std::uint64_t tick = lane.add([&] {
        log.push_back("L" + std::to_string(static_cast<int>(sim.now())));
        if (sim.now() < 15.0) sim.after_ordered(5.0, 0);  // tag 0: this callback
      });
      if (lane_first) {
        sim.after_ordered(5.0, tick);
        stream.claim_first();
      } else {
        stream.claim_first();
        sim.after_ordered(5.0, tick);
      }
      sim.add_event_stream(&stream);
      int pauses = 0;
      if (gated) {
        while (!sim.run_until_gated(20.0)) {
          ++pauses;
          stream.open();
        }
      } else {
        sim.run_until(20.0);
      }
      const std::vector<std::string> expected =
          lane_first ? std::vector<std::string>{"L5", "S5", "L10", "S10", "L15", "S15"}
                     : std::vector<std::string>{"S5", "L5", "S10", "L10", "S15", "L15"};
      EXPECT_EQ(log, expected) << "lane_first " << lane_first << " gated " << gated;
      EXPECT_EQ(pauses, gated ? 3 : 0);
      EXPECT_EQ(sim.pending_events(), 1u);
      EXPECT_DOUBLE_EQ(sim.now(), 20.0);
    }
  }
}


/// One moving head, as the incremental flow engine keeps its next
/// completion: arming at a new time claims a fresh rank, re-arming at the
/// same time keeps it, and each fire() arms the next scripted time.
class HeadStream : public EventStream {
 public:
  HeadStream(Simulator& sim, std::vector<std::string>& log, std::string name,
             std::vector<double> script = {})
      : sim_(sim), log_(log), name_(std::move(name)), script_(std::move(script)) {}

  void arm(double t) {
    if (t != head_time()) sim_.set_stream_head(*this, t, sim_.allocate_sequence());
  }
  void fire() override {
    sim_.set_stream_head(*this, std::numeric_limits<double>::infinity(), head_rank());
    log_.push_back(name_ + std::to_string(static_cast<int>(sim_.now())));
    if (next_ < script_.size()) arm(script_[next_++]);
  }
  bool ready() const override { return !closed_; }
  void close() { closed_ = true; }
  void open() { closed_ = false; }

 private:
  Simulator& sim_;
  std::vector<std::string>& log_;
  std::string name_;
  std::vector<double> script_;
  std::size_t next_ = 0;
  bool closed_ = false;
};

TEST(Simulator, FourSourcesTiedAtOneInstantFireInRankOrder) {
  // A heap event, a lane event and two registered streams' heads all fall
  // at t = 5. Whatever order they claimed their ranks in is the order they
  // fire in, gated or not.
  const std::array<std::string, 4> names{"H", "L", "S", "R"};
  std::array<int, 4> order{0, 1, 2, 3};
  do {
    for (const bool gated : {false, true}) {
      Simulator sim;
      std::vector<std::string> log;
      HeadStream first(sim, log, "S");
      HeadStream second(sim, log, "R");
      sim.add_event_stream(&first);
      sim.add_event_stream(&second);
      LaneActions lane(sim);
      const std::uint64_t lane_event = lane.add([&] { log.push_back("L5"); });
      std::vector<std::string> expected;
      for (const int source : order) {
        if (source == 0) sim.at(5.0, [&] { log.push_back("H5"); });
        if (source == 1) sim.after_ordered(5.0, lane_event);
        if (source == 2) first.arm(5.0);
        if (source == 3) second.arm(5.0);
        expected.push_back(names[static_cast<std::size_t>(source)] + "5");
      }
      if (gated) {
        EXPECT_TRUE(sim.run_until_gated(10.0));
      } else {
        sim.run_until(10.0);
      }
      EXPECT_EQ(log, expected) << "gated " << gated;
      EXPECT_EQ(sim.executed_events(), 4u);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Simulator, RegistrationOrderNeverChangesTieOrder) {
  // Three registered streams and a heap event tie at t = 5. For every
  // registration order and every rank-claim order, events fire in rank
  // order, gated and ungated: ranks come from one counter, so where a
  // stream sits in the list never matters.
  const std::array<std::string, 3> names{"A", "B", "C"};
  std::array<int, 3> registration{0, 1, 2};
  do {
    std::array<int, 4> claim{0, 1, 2, 3};  // 3 = the heap event
    do {
      for (const bool gated : {false, true}) {
        Simulator sim;
        std::vector<std::string> log;
        std::deque<HeadStream> streams;  // streams are not copyable or movable
        for (const std::string& name : names) streams.emplace_back(sim, log, name);
        for (const int s : registration) {
          sim.add_event_stream(&streams[static_cast<std::size_t>(s)]);
        }
        std::vector<std::string> expected;
        for (const int source : claim) {
          if (source == 3) {
            sim.at(5.0, [&] { log.push_back("H5"); });
            expected.push_back("H5");
          } else {
            streams[static_cast<std::size_t>(source)].arm(5.0);
            expected.push_back(names[static_cast<std::size_t>(source)] + "5");
          }
        }
        if (gated) {
          EXPECT_TRUE(sim.run_until_gated(10.0));
        } else {
          sim.run_until(10.0);
        }
        EXPECT_EQ(log, expected) << "gated " << gated;
        EXPECT_DOUBLE_EQ(sim.now(), 10.0);
      }
    } while (std::next_permutation(claim.begin(), claim.end()));
  } while (std::next_permutation(registration.begin(), registration.end()));
}

/// A HeadStream whose every fire() also re-arms another stream, the way a
/// flow arrival moves the engine's completion head.
class RearmingStream : public HeadStream {
 public:
  RearmingStream(Simulator& sim, std::vector<std::string>& log, HeadStream& other,
                 std::vector<double> script, std::vector<double> other_times)
      : HeadStream(sim, log, "A", std::move(script)),
        other_(other),
        other_times_(std::move(other_times)) {}
  void fire() override {
    HeadStream::fire();
    if (next_other_ < other_times_.size()) other_.arm(other_times_[next_other_++]);
  }

 private:
  HeadStream& other_;
  std::vector<double> other_times_;
  std::size_t next_other_ = 0;
};

TEST(Simulator, FireMayRearmAnotherStreamEarlier) {
  // B waits at 9. A fires at 5 and pulls B forward to 6, ahead of a heap
  // event at 7 and of B's own old head; at 8, A pushes B onto the current
  // instant, where B's fresh rank puts it after everything already there.
  // The published heads must reflect each re-arm before the next pick, in
  // either registration order, gated or not.
  for (const bool b_first : {false, true}) {
    for (const bool gated : {false, true}) {
      Simulator sim;
      std::vector<std::string> log;
      HeadStream b(sim, log, "B");
      RearmingStream a(sim, log, b, {8.0}, {6.0, 8.0});
      if (b_first) sim.add_event_stream(&b);
      sim.add_event_stream(&a);
      if (!b_first) sim.add_event_stream(&b);
      b.arm(9.0);
      sim.at(7.0, [&] { log.push_back("H7"); });
      sim.at(8.0, [&] { log.push_back("H8"); });
      a.arm(5.0);
      if (gated) {
        EXPECT_TRUE(sim.run_until_gated(20.0));
      } else {
        sim.run_until(20.0);
      }
      EXPECT_EQ(log, (std::vector<std::string>{"A5", "B6", "H7", "H8", "A8", "B8"}))
          << "b_first " << b_first << " gated " << gated;
      EXPECT_EQ(sim.executed_events(), 6u);
    }
  }
}

TEST(Simulator, GatePausesOnAnyNotReadyHead) {
  // run_until_gated pauses before whichever stream head is about to fire
  // with ready() false, leaving the clock at the last dispatched instant;
  // run_until ignores the gate.
  Simulator sim;
  std::vector<std::string> log;
  HeadStream closed(sim, log, "R", {7.0});
  HeadStream open(sim, log, "S");
  sim.add_event_stream(&closed);
  sim.add_event_stream(&open);
  sim.at(1.0, [&] { log.push_back("H1"); });
  closed.arm(3.0);
  closed.close();
  open.arm(5.0);
  EXPECT_FALSE(sim.run_until_gated(10.0));
  EXPECT_EQ(log, (std::vector<std::string>{"H1"}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_FALSE(sim.run_until_gated(10.0));  // still closed: no progress
  EXPECT_EQ(log, (std::vector<std::string>{"H1"}));
  closed.open();
  EXPECT_TRUE(sim.run_until_gated(4.0));
  EXPECT_EQ(log, (std::vector<std::string>{"H1", "R3"}));
  closed.close();
  sim.run_until(10.0);
  EXPECT_EQ(log, (std::vector<std::string>{"H1", "R3", "S5", "R7"}));
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, SecondRegistrationThrows) {
  Simulator sim;
  std::vector<std::string> log;
  HeadStream first(sim, log, "A");
  HeadStream second(sim, log, "B");
  sim.add_event_stream(&first);
  EXPECT_THROW(sim.add_event_stream(&first), util::InvalidState);
  EXPECT_THROW(sim.remove_event_stream(&second), util::InvalidState);
  EXPECT_THROW(sim.add_event_stream(nullptr), util::InvalidArgument);
  sim.add_event_stream(&second);
  sim.remove_event_stream(&first);
  EXPECT_THROW(sim.remove_event_stream(&first), util::InvalidState);
  // A removed stream no longer fires; the one left still does.
  first.arm(0.5);
  second.arm(2.0);
  sim.run_until(1.0);
  EXPECT_TRUE(log.empty());
  first.arm(2.5);
  sim.add_event_stream(&first);
  sim.run_until(3.0);
  EXPECT_EQ(log, (std::vector<std::string>{"B2", "A2"}));

  // A stream belongs to one simulator at a time: another may neither take
  // it nor remove it, and the first keeps firing it.
  Simulator other;
  EXPECT_THROW(other.add_event_stream(&second), util::InvalidState);
  EXPECT_THROW(other.remove_event_stream(&second), util::InvalidState);
  second.arm(4.0);
  sim.run_until(5.0);
  EXPECT_EQ(log, (std::vector<std::string>{"B2", "A2", "B4"}));
  // Once removed, it may move, and its published head follows it.
  sim.remove_event_stream(&second);
  other.add_event_stream(&second);
  second.arm(6.0);
  sim.run_until(7.0);
  EXPECT_EQ(log.size(), 3u);
  other.run_until(7.0);
  EXPECT_EQ(other.executed_events(), 1u);
  EXPECT_EQ(log.size(), 4u);  // (the stream logs its constructing simulator's clock)
  other.remove_event_stream(&second);

  // A copy would share the original's registration slot, so there is none.
  static_assert(!std::is_copy_constructible_v<EventStream>);
  static_assert(!std::is_copy_assignable_v<EventStream>);
}

/// A stream that defers work the way the flow engine coalesces a burst:
/// defer() requests a flush, and flush() logs the instant it ran at and arms
/// the head half a second later.
class DeferringStream : public EventStream {
 public:
  DeferringStream(Simulator& sim, std::vector<std::string>& log, std::string name)
      : sim_(sim), log_(log), name_(std::move(name)) {}

  void defer() {
    deferred_ = true;
    sim_.request_flush();
  }
  void fire() override {
    sim_.set_stream_head(*this, std::numeric_limits<double>::infinity(), head_rank());
    log_.push_back(name_ + "@" + std::to_string(sim_.now()));
  }
  void flush() override {
    if (!deferred_) return;
    deferred_ = false;
    log_.push_back("flush " + name_ + "@" + std::to_string(sim_.now()));
    sim_.set_stream_head(*this, sim_.now() + 0.5, sim_.allocate_sequence());
  }

 private:
  Simulator& sim_;
  std::vector<std::string>& log_;
  std::string name_;
  bool deferred_ = false;
};

TEST(Simulator, FlushBarrierFlushesEveryRegisteredStream) {
  Simulator sim;
  std::vector<std::string> log;
  DeferringStream a(sim, log, "A");
  DeferringStream b(sim, log, "B");
  sim.add_event_stream(&a);
  sim.add_event_stream(&b);
  sim.at(1.0, [&] {
    log.push_back("H@" + std::to_string(sim.now()));
    b.defer();
    a.defer();
  });
  sim.at(1.0, [&] { log.push_back("H'@" + std::to_string(sim.now())); });
  sim.at(2.0, [&] { log.push_back("H@" + std::to_string(sim.now())); });
  sim.run_until(3.0);
  // Both deferrals are brought current at t = 1 — after the second event at
  // that instant, before the clock moves — and what they armed fires in
  // the ranks their flushes claimed.
  const std::string one = std::to_string(1.0);
  EXPECT_EQ(log, (std::vector<std::string>{"H@" + one, "H'@" + one, "flush A@" + one,
                                           "flush B@" + one, "A@" + std::to_string(1.5),
                                           "B@" + std::to_string(1.5),
                                           "H@" + std::to_string(2.0)}));
}

TEST(Simulator, RunToCompletionRunsEveryRegisteredStreamEvent) {
  Simulator sim;
  std::vector<std::string> log;
  HeadStream registered(sim, log, "R", {2.0, 4.0});
  sim.add_event_stream(&registered);
  registered.arm(1.0);
  sim.at(3.0, [&] { log.push_back("H3"); });
  sim.run_to_completion();
  EXPECT_EQ(log, (std::vector<std::string>{"R1", "R2", "H3", "R4"}));
  EXPECT_EQ(sim.executed_events(), 4u);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);  // the clock ends at the last event
  EXPECT_TRUE(std::isinf(registered.head_time()));
}

}  // namespace
}  // namespace insomnia::sim
