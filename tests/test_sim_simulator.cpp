#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
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

TEST(Simulator, AfterOrderedRejectsNegativeDelay) {
  Simulator sim;
  EXPECT_THROW(sim.after_ordered(-1.0, [] {}), util::InvalidArgument);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.after_ordered(2.0, [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
}

/// A stream whose events every 5 s claim their successor's rank as they
/// fire, the way trace arrivals do. With `gate` set, each head is held back
/// once (ready() is false until the caller reopens the gate), like a live
/// source waiting for the next record.
class TickStream : public EventStream {
 public:
  TickStream(Simulator& sim, std::vector<std::string>& log, bool gate)
      : sim_(sim), log_(log), gate_(gate) {}

  void claim_first() { rank_ = sim_.allocate_sequence(); }
  double next_time() const override {
    return time_ <= 15.0 ? time_ : std::numeric_limits<double>::infinity();
  }
  std::uint64_t next_rank() const override { return rank_; }
  void fire() override {
    log_.push_back("S" + std::to_string(static_cast<int>(sim_.now())));
    time_ += 5.0;
    rank_ = sim_.allocate_sequence();
    open_ = false;
  }
  bool ready() const override { return !gate_ || open_; }
  void open() { open_ = true; }

 private:
  Simulator& sim_;
  std::vector<std::string>& log_;
  bool gate_;
  bool open_ = false;
  double time_ = 5.0;
  std::uint64_t rank_ = 0;
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
      std::function<void()> tick = [&] {
        log.push_back("L" + std::to_string(static_cast<int>(sim.now())));
        if (sim.now() < 15.0) sim.after_ordered(5.0, tick);
      };
      if (lane_first) {
        sim.after_ordered(5.0, tick);
        stream.claim_first();
      } else {
        stream.claim_first();
        sim.after_ordered(5.0, tick);
      }
      int pauses = 0;
      if (gated) {
        while (!sim.run_until_gated(20.0, &stream)) {
          ++pauses;
          stream.open();
        }
      } else {
        sim.run_until(20.0, &stream);
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
    if (t != time_) rank_ = sim_.allocate_sequence();
    time_ = t;
  }
  double next_time() const override { return time_; }
  std::uint64_t next_rank() const override { return rank_; }
  void fire() override {
    time_ = std::numeric_limits<double>::infinity();
    log_.push_back(name_ + std::to_string(static_cast<int>(sim_.now())));
    if (next_ < script_.size()) arm(script_[next_++]);
  }
  bool ready() const override { return !closed_; }
  void close() { closed_ = true; }

 private:
  Simulator& sim_;
  std::vector<std::string>& log_;
  std::string name_;
  std::vector<double> script_;
  std::size_t next_ = 0;
  double time_ = std::numeric_limits<double>::infinity();
  std::uint64_t rank_ = 0;
  bool closed_ = false;
};

TEST(Simulator, FourSourcesTiedAtOneInstantFireInRankOrder) {
  // A heap event, a lane event, the run_until stream's head and the
  // registered stream's head all fall at t = 5. Whatever order they claimed
  // their ranks in is the order they fire in, gated or not.
  const std::array<std::string, 4> names{"H", "L", "S", "R"};
  std::array<int, 4> order{0, 1, 2, 3};
  do {
    for (const bool gated : {false, true}) {
      Simulator sim;
      std::vector<std::string> log;
      HeadStream run_stream(sim, log, "S");
      HeadStream registered(sim, log, "R");
      sim.set_event_stream(&registered);
      std::vector<std::string> expected;
      for (const int source : order) {
        if (source == 0) sim.at(5.0, [&] { log.push_back("H5"); });
        if (source == 1) sim.after_ordered(5.0, [&] { log.push_back("L5"); });
        if (source == 2) run_stream.arm(5.0);
        if (source == 3) registered.arm(5.0);
        expected.push_back(names[static_cast<std::size_t>(source)] + "5");
      }
      if (gated) {
        EXPECT_TRUE(sim.run_until_gated(10.0, &run_stream));
      } else {
        sim.run_until(10.0, &run_stream);
      }
      EXPECT_EQ(log, expected) << "gated " << gated;
      EXPECT_EQ(sim.executed_events(), 4u);
      sim.set_event_stream(nullptr);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Simulator, RegisteredStreamIsNeverGated) {
  // Only the run's own stream answers to ready(); a registered head whose
  // ready() is false still fires, and the gated run still pauses on the
  // run stream.
  Simulator sim;
  std::vector<std::string> log;
  HeadStream registered(sim, log, "R", {7.0});
  registered.close();
  sim.set_event_stream(&registered);
  registered.arm(3.0);
  HeadStream run_stream(sim, log, "S");
  run_stream.arm(5.0);
  run_stream.close();
  EXPECT_FALSE(sim.run_until_gated(10.0, &run_stream));
  EXPECT_EQ(log, (std::vector<std::string>{"R3"}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run_until(10.0, &run_stream);
  EXPECT_EQ(log, (std::vector<std::string>{"R3", "S5", "R7"}));
  sim.set_event_stream(nullptr);
}

TEST(Simulator, SecondRegistrationThrows) {
  Simulator sim;
  std::vector<std::string> log;
  HeadStream first(sim, log, "A");
  HeadStream second(sim, log, "B");
  sim.set_event_stream(&first);
  EXPECT_THROW(sim.set_event_stream(&second), util::InvalidState);
  EXPECT_EQ(sim.event_stream(), &first);
  sim.set_event_stream(nullptr);
  sim.set_event_stream(&second);
  EXPECT_EQ(sim.event_stream(), &second);
  sim.set_event_stream(nullptr);

  struct NoopHook : FlushHook {
    void flush() override {}
  } hook_a, hook_b;
  sim.set_flush_hook(&hook_a);
  EXPECT_THROW(sim.set_flush_hook(&hook_b), util::InvalidState);
  EXPECT_EQ(sim.flush_hook(), &hook_a);
  sim.set_flush_hook(nullptr);
}

TEST(Simulator, RunToCompletionRunsEveryRegisteredStreamEvent) {
  Simulator sim;
  std::vector<std::string> log;
  HeadStream registered(sim, log, "R", {2.0, 4.0});
  sim.set_event_stream(&registered);
  registered.arm(1.0);
  sim.at(3.0, [&] { log.push_back("H3"); });
  sim.run_to_completion();
  EXPECT_EQ(log, (std::vector<std::string>{"R1", "R2", "H3", "R4"}));
  EXPECT_EQ(sim.executed_events(), 4u);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);  // the clock ends at the last event
  EXPECT_TRUE(std::isinf(registered.next_time()));
  sim.set_event_stream(nullptr);
}

}  // namespace
}  // namespace insomnia::sim
