// Model-based stress tests: the event queue against a reference
// implementation (sorted multimap), under random schedule/cancel/
// reschedule/allocate_sequence/run interleavings.
//
// The reference counts FIFO ranks exactly like the real queue — schedule,
// reschedule and allocate_sequence each consume one rank — so the model
// checks not just which event fires next but its exact sequence number,
// pinning the rank semantics Simulator::EventStream interleaving relies on.
// Retired handles (fired or cancelled) are kept and re-probed: the
// generation stamp must keep rejecting them in O(1) even after their pool
// slot has been recycled by later schedules.
// A second variant drives a Simulator with two registered EventStreams (the
// flow engine's completion-head shape) beside heap events and ordered-lane
// appends (Simulator::after_ordered, modelled as schedules under a fresh
// rank: their times are non-decreasing but coarse, so they tie with heap
// events and with each other), and checks the run loop's merged firing
// order against the same reference.
#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace insomnia::sim {
namespace {

/// Reference: ordered multimap from (time, sequence) to id. Sequence ranks
/// are allocated from the same counter discipline as EventQueue's, so the
/// two structures must agree on `next_sequence()` exactly.
class ReferenceQueue {
 public:
  EventId schedule(double t) {
    const EventId id = next_id_++;
    entries_.emplace(std::make_pair(t, sequence_++), id);
    return id;
  }
  bool cancel(EventId id) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second == id) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }
  /// Cancel + re-add under a fresh rank: among equal times a rescheduled
  /// event fires after everything already queued.
  bool reschedule(EventId id, double t) {
    if (!cancel(id)) return false;
    entries_.emplace(std::make_pair(t, sequence_++), id);
    return true;
  }
  /// Burns one rank for an externally ordered event (EventStream).
  std::uint64_t allocate_sequence() { return sequence_++; }
  bool empty() const { return entries_.empty(); }
  std::pair<double, std::uint64_t> peek_key() const { return entries_.begin()->first; }
  std::tuple<double, std::uint64_t, EventId> pop() {
    auto it = entries_.begin();
    auto result = std::make_tuple(it->first.first, it->first.second, it->second);
    entries_.erase(it);
    return result;
  }

 private:
  std::map<std::pair<double, std::uint64_t>, EventId> entries_;
  std::uint64_t sequence_ = 0;
  EventId next_id_ = 1;
};

class EventQueueModel : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueModel, MatchesReferenceUnderRandomOps) {
  Random rng(static_cast<std::uint64_t>(GetParam()) * 7);
  EventQueue queue;
  ReferenceQueue reference;
  // The queue's ids encode recycled (slot, generation) pairs, so the two
  // id spaces differ; `live` keeps the correspondence for cancels and
  // reschedules, and the scheduled closure records which reference event
  // actually ran. `dead` holds retired queue handles for staleness probes.
  std::vector<std::pair<EventId, EventId>> live;  // (queue id, reference id)
  std::vector<EventId> dead;
  EventId last_fired = 0;

  const auto check_heads = [&] {
    ASSERT_EQ(queue.empty(), reference.empty());
    ASSERT_EQ(queue.size(), live.size());
    if (!queue.empty()) {
      const auto [ref_t, ref_seq] = reference.peek_key();
      ASSERT_EQ(queue.next_time(), ref_t);
      ASSERT_EQ(queue.next_sequence(), ref_seq) << "FIFO rank divergence at the head";
    }
  };

  for (int step = 0; step < 4000; ++step) {
    const int op = rng.uniform_int(0, 12);
    if (op < 5) {
      // Schedule. Times are drawn coarse so ties are common.
      const double t = static_cast<double>(rng.uniform_int(0, 50));
      const EventId ref_id = reference.schedule(t);
      const EventId id = queue.schedule(t, [&last_fired, ref_id] { last_fired = ref_id; });
      ASSERT_NE(id, kInvalidEventId);
      ASSERT_TRUE(queue.is_pending(id));
      live.emplace_back(id, ref_id);
    } else if (op < 7 && !live.empty()) {
      // Cancel a random live id.
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      const auto [id, ref_id] = live[pick];
      const bool a = queue.cancel(id);
      const bool b = reference.cancel(ref_id);
      ASSERT_EQ(a, b) << "cancel divergence on id " << id;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      dead.push_back(id);
    } else if (op < 9 && !live.empty()) {
      // Reschedule a random live id to a new (often tied) time. The closure
      // stays; the event must take a fresh FIFO rank in both structures.
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      const auto [id, ref_id] = live[pick];
      const double t = static_cast<double>(rng.uniform_int(0, 50));
      ASSERT_TRUE(queue.reschedule(id, t));
      ASSERT_TRUE(reference.reschedule(ref_id, t));
      ASSERT_TRUE(queue.is_pending(id));
    } else if (op == 9) {
      // Interleaved external stream rank: both counters burn one rank and
      // must hand out the same number.
      ASSERT_EQ(queue.allocate_sequence(), reference.allocate_sequence());
    } else if (op == 10 && !dead.empty()) {
      // Stale-handle probe: a retired id must stay invisible even after its
      // slot was recycled by later schedules (generation stamp check).
      const EventId stale = dead[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(dead.size()) - 1))];
      ASSERT_FALSE(queue.is_pending(stale));
      ASSERT_FALSE(queue.cancel(stale));
      ASSERT_FALSE(queue.reschedule(stale, 10.0));
    } else if (!queue.empty()) {
      ASSERT_FALSE(reference.empty());
      const double t = queue.next_time();
      const auto [ref_t, ref_seq, ref_id] = reference.pop();
      ASSERT_EQ(t, ref_t);
      ASSERT_EQ(queue.next_sequence(), ref_seq);
      queue.run_next();
      ASSERT_EQ(last_fired, ref_id) << "fired a different event than the reference";
      const auto fired = std::find_if(live.begin(), live.end(),
                                      [ref_id = ref_id](const std::pair<EventId, EventId>& p) {
                                        return p.second == ref_id;
                                      });
      ASSERT_NE(fired, live.end());
      dead.push_back(fired->first);
      live.erase(fired);
    } else {
      ASSERT_TRUE(reference.empty());
    }
    check_heads();
  }
  // Drain both; order and ranks must match exactly.
  while (!queue.empty()) {
    ASSERT_FALSE(reference.empty());
    const double t = queue.next_time();
    const auto [ref_t, ref_seq, ref_id] = reference.pop();
    ASSERT_EQ(t, ref_t);
    ASSERT_EQ(queue.next_sequence(), ref_seq);
    queue.run_next();
    ASSERT_EQ(last_fired, ref_id) << "fired a different event than the reference";
  }
  ASSERT_TRUE(reference.empty());
}

/// A registered stream driven like the incremental flow engine's
/// completion head: armed, moved and cleared from outside, re-armed by its
/// own fire(), claiming a fresh rank whenever it takes a new time and
/// keeping it when re-armed at the same time. The reference mirrors it as
/// one ordinary event: a first arm is a schedule, a move a reschedule, a
/// clear a cancel — so the merged run must match the all-heap model.
class ModelStream : public EventStream {
 public:
  /// With `gate`, every arm closes the stream until open(): a gated run
  /// pauses before each head once, as a live arrival waits for its
  /// successor.
  ModelStream(Simulator& sim, ReferenceQueue& reference, Random& rng,
              std::vector<EventId>& fired, bool gate)
      : sim_(sim), reference_(reference), rng_(rng), fired_(fired), gate_(gate) {}

  bool ready() const override { return !closed_; }
  void open() { closed_ = false; }

  bool armed() const { return ref_id_ != 0; }
  void arm(double t) {
    if (armed() && t == time_) return;
    if (armed()) {
      ASSERT_TRUE(reference_.reschedule(ref_id_, t));
    } else {
      ref_id_ = reference_.schedule(t);
    }
    time_ = t;
    closed_ = gate_;
    sim_.set_stream_head(*this, t, sim_.allocate_sequence());
  }
  void clear() {
    if (!armed()) return;
    ASSERT_TRUE(reference_.cancel(ref_id_));
    ref_id_ = 0;
    time_ = std::numeric_limits<double>::infinity();
    sim_.set_stream_head(*this, time_, head_rank());
  }
  void fire() override {
    fired_.push_back(ref_id_);
    ref_id_ = 0;
    time_ = std::numeric_limits<double>::infinity();
    sim_.set_stream_head(*this, time_, head_rank());
    // Re-arm from inside the fire a third of the time, often at this very
    // instant, as completions re-arm the engine's head.
    if (rng_.uniform_int(0, 2) == 0) arm(sim_.now() + rng_.uniform_int(0, 3));
  }

 private:
  Simulator& sim_;
  ReferenceQueue& reference_;
  Random& rng_;
  std::vector<EventId>& fired_;
  bool gate_;
  bool closed_ = false;
  double time_ = std::numeric_limits<double>::infinity();
  EventId ref_id_ = 0;
};

/// Lane events carry the reference id they mirror as their tag.
class LaneToLog : public OrderedHandler {
 public:
  explicit LaneToLog(std::vector<EventId>& fired) : fired_(fired) {}
  void on_ordered(std::uint64_t tag) override { fired_.push_back(tag); }

 private:
  std::vector<EventId>& fired_;
};

void check_registered_streams(int seed, bool gated);

TEST_P(EventQueueModel, RegisteredStreamMatchesReference) {
  // Ungated, and gated with every armed head paused once: a gated run that
  // always resumes fires exactly what the ungated one does.
  for (const bool gated : {false, true}) {
    SCOPED_TRACE(gated ? "gated" : "ungated");
    check_registered_streams(GetParam(), gated);
    if (HasFatalFailure()) return;
  }
}

void check_registered_streams(int seed, bool gated) {
  Random rng(static_cast<std::uint64_t>(seed) * 11);
  Simulator sim;
  ReferenceQueue reference;
  std::vector<EventId> fired;  // reference ids, in the order the simulator ran them
  std::array<ModelStream, 2> streams{ModelStream(sim, reference, rng, fired, gated),
                                     ModelStream(sim, reference, rng, fired, gated)};
  sim.add_event_stream(&streams[0]);
  sim.add_event_stream(&streams[1]);
  LaneToLog lane_log(fired);
  sim.set_ordered_handler(&lane_log);
  std::vector<std::pair<EventId, EventId>> live;  // (queue id, reference id)
  std::vector<EventId> lane;
  double lane_time = 0.0;

  // Pops every reference event due by `horizon` and checks the simulator
  // fired exactly those, in the same order; retires fired heap/lane events.
  // `last_time` receives the time of the last one popped.
  double last_time = 0.0;
  const auto check_fired = [&](double horizon) {
    std::vector<EventId> expected;
    while (!reference.empty() && reference.peek_key().first <= horizon) {
      const auto [t, seq, ref_id] = reference.pop();
      expected.push_back(ref_id);
      last_time = t;
    }
    ASSERT_EQ(fired, expected) << "merged order diverged from the all-heap reference";
    for (const EventId ref_id : fired) {
      const auto it = std::find_if(live.begin(), live.end(),
                                   [ref_id](const std::pair<EventId, EventId>& p) {
                                     return p.second == ref_id;
                                   });
      if (it != live.end()) {
        live.erase(it);
      } else if (!lane.empty() && lane.front() == ref_id) {
        lane.erase(lane.begin());
      }
    }
    fired.clear();
  };

  for (int step = 0; step < 3000; ++step) {
    const double now = sim.now();
    const int op = rng.uniform_int(0, 13);
    if (op < 4) {
      const double t = now + rng.uniform_int(0, 20);
      const EventId ref_id = reference.schedule(t);
      live.emplace_back(sim.at(t, [&fired, ref_id] { fired.push_back(ref_id); }), ref_id);
    } else if (op < 5 && !live.empty()) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      ASSERT_TRUE(sim.cancel(live[pick].first));
      ASSERT_TRUE(reference.cancel(live[pick].second));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (op < 6 && !live.empty()) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      const double t = now + rng.uniform_int(0, 20);
      ASSERT_TRUE(sim.reschedule(live[pick].first, t));
      ASSERT_TRUE(reference.reschedule(live[pick].second, t));
    } else if (op == 6) {
      ASSERT_EQ(sim.allocate_sequence(), reference.allocate_sequence());
    } else if (op == 7) {
      lane_time = std::max(lane_time, now) + (rng.uniform_int(0, 3) == 0 ? 1.0 : 0.0);
      const EventId ref_id = reference.schedule(lane_time);
      sim.after_ordered(lane_time - now, ref_id);
      lane.push_back(ref_id);
    } else if (op < 11) {
      // Arm or move a head; small offsets make same-time re-arms (rank
      // kept) and ties with queued events and the other head common.
      streams[static_cast<std::size_t>(rng.uniform_int(0, 1))].arm(now + rng.uniform_int(0, 6));
    } else if (op == 11) {
      streams[static_cast<std::size_t>(rng.uniform_int(0, 1))].clear();
    } else if (!reference.empty()) {
      const double horizon = reference.peek_key().first;
      if (gated) {
        while (!sim.run_until_gated(horizon)) {
          streams[0].open();
          streams[1].open();
        }
      } else {
        sim.run_until(horizon);
      }
      check_fired(horizon);
    }
    ASSERT_EQ(sim.pending_events(), live.size() + lane.size());
    ASSERT_EQ(reference.empty(),
              live.empty() && lane.empty() && !streams[0].armed() && !streams[1].armed());
  }
  // run_to_completion drains the registered streams too, self-re-arms
  // included, and leaves the clock at the last event.
  sim.run_to_completion();
  check_fired(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(reference.empty());
  EXPECT_FALSE(streams[0].armed());
  EXPECT_FALSE(streams[1].armed());
  EXPECT_EQ(sim.now(), last_time);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModel, ::testing::Range(1, 9));

TEST(SimulatorStress, ManyRecursiveSchedules) {
  Simulator sim;
  long executed = 0;
  // A cascade of events each scheduling two more up to a horizon.
  std::function<void(double)> spawn = [&](double t) {
    ++executed;
    if (t < 50.0) {
      sim.at(t + 1.0, [&spawn, t] { spawn(t + 1.0); });
    }
  };
  sim.at(0.0, [&spawn] { spawn(0.0); });
  sim.run_until(100.0);
  EXPECT_EQ(executed, 51);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(SimulatorStress, InterleavedCancellationFromCallbacks) {
  Simulator sim;
  Random rng(3);
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 500; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    ids.push_back(sim.at(t, [&] {
      ++fired;
      // Cancel a random other event (possibly already fired: no-op).
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(ids.size()) - 1));
      sim.cancel(ids[pick]);
    }));
  }
  sim.run_until(200.0);
  EXPECT_GT(fired, 0);
  EXPECT_LE(fired, 500);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace insomnia::sim
