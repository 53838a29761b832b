#include <cstdint>
#include <functional>
#include <limits>
#include <string>
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

}  // namespace
}  // namespace insomnia::sim
