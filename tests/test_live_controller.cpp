// The streaming controller's correctness anchor: a virtual-time live run
// over the same records and seed produces a RunReport byte-identical to the
// offline Engine (modulo the telemetry block, which to_json(false) omits) —
// regardless of tick size or queue capacity. Plus option validation and the
// wall-pace path, which under backpressure must still decide the whole day.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#if defined(__linux__)
#include <dirent.h>
#endif

#include "core/engine.h"
#include "core/scenario.h"
#include "live/event_source.h"
#include "live/live_controller.h"
#include "live/tail_source.h"
#include "util/error.h"

namespace insomnia::live {
namespace {

core::ScenarioConfig small_scenario() {
  core::ScenarioConfig scenario;
  scenario.client_count = 48;
  scenario.gateway_count = 8;
  scenario.degrees.node_count = 8;
  scenario.degrees.mean_degree = 4.0;
  scenario.traffic.client_count = 48;
  scenario.dslam.line_cards = 4;
  scenario.dslam.ports_per_card = 2;
  return scenario;
}

LiveController::Options live_options() {
  LiveController::Options options;
  options.scenario = small_scenario();
  options.preset_name = "(inline)";  // Engine's echo for inline scenarios
  options.scheme = "bh2-kswitch";
  options.seed = 42;
  options.bins = 8;
  return options;
}

core::RunSpec offline_spec() {
  core::RunSpec spec;
  spec.scenario = small_scenario();
  spec.scheme = "bh2-kswitch";
  spec.seed = 42;
  spec.runs = 1;
  spec.bins = 8;
  return spec;
}

std::unique_ptr<GeneratorSource> make_generator(const LiveController::Options& options) {
  return std::make_unique<GeneratorSource>(options.scenario.traffic, options.seed,
                                           /*days=*/1);
}

TEST(LiveController, VirtualReplayIsByteIdenticalToTheOfflineEngine) {
  const std::string offline = core::Engine().run(offline_spec()).to_json(false);

  LiveController::Options options = live_options();
  LiveController controller(options, make_generator(options));
  const LiveResult result = controller.run();

  EXPECT_EQ(result.report.to_json(false), offline);
  EXPECT_EQ(result.stats.dropped, 0u);
  EXPECT_EQ(result.stats.ingested, result.stats.decided);
  EXPECT_EQ(result.stats.latency.count, result.stats.decided);
  EXPECT_FALSE(result.stats.interrupted);
}

TEST(LiveController, TickSizeAndQueueCapacityDoNotChangeTheReport) {
  LiveController::Options base = live_options();
  LiveController controller_a(base, make_generator(base));
  const std::string reference = controller_a.run().report.to_json(false);

  LiveController::Options coarse = live_options();
  coarse.tick_virtual_sec = 7200.0;
  LiveController controller_b(coarse, make_generator(coarse));
  EXPECT_EQ(controller_b.run().report.to_json(false), reference);

  LiveController::Options tiny_queue = live_options();
  tiny_queue.queue_capacity = 64;  // backpressure throttles the poll, only
  LiveController controller_c(tiny_queue, make_generator(tiny_queue));
  EXPECT_EQ(controller_c.run().report.to_json(false), reference);
}

TEST(LiveController, RecordedLiveDayReplaysIdenticallyThroughTailAndEngine) {
  const std::string trace_path = ::testing::TempDir() + "live_recorded.trace";
  std::remove(trace_path.c_str());

  LiveController::Options recording = live_options();
  recording.record_path = trace_path;
  LiveController recorder(recording, make_generator(recording));
  recorder.run();

  // Offline engine replaying the recorded file...
  core::RunSpec spec = offline_spec();
  spec.trace_file = trace_path;
  const std::string offline = core::Engine().run(spec).to_json(false);

  // ...must match a live tail replay of the same file.
  LiveController::Options tailing = live_options();
  tailing.trace_file = trace_path;  // echo parity with RunSpec.trace_file
  LiveController tailer(tailing,
                        std::make_unique<TailSource>(TailSource::Options{trace_path, false}));
  EXPECT_EQ(tailer.run().report.to_json(false), offline);
  std::remove(trace_path.c_str());
}

TEST(LiveController, WallPaceDrainsTheWholeDayAtHighSpeedup) {
  const core::RunReport offline = core::Engine().run(offline_spec());

  LiveController::Options options = live_options();
  options.pace = PaceMode::kWall;
  options.tick_wall_sec = 0.005;
  options.speedup = 86400.0 / 0.05;  // whole day in ~50 ms of wall time
  // A tick's records outnumber the queue: backpressure must throttle the
  // poll, not lose what is left in the source when the day's last tick ends.
  options.queue_capacity = 64;
  LiveController controller(options, make_generator(options));
  const LiveResult result = controller.run();

  ASSERT_EQ(result.report.days.size(), 1u);
  EXPECT_EQ(result.report.days[0].flows, offline.days.at(0).flows);
  EXPECT_EQ(result.stats.dropped, 0u);
  EXPECT_EQ(result.stats.ingested, result.stats.decided);
  EXPECT_DOUBLE_EQ(result.stats.virtual_seconds, 86400.0);
  EXPECT_GE(result.stats.ticks, 1u);
}

TEST(LiveController, WallBudgetStopsAVirtualReplayEarlyAndStillDrains) {
  LiveController::Options options = live_options();
  options.max_wall_sec = 1e-6;  // expires after the first tick
  LiveController controller(options, make_generator(options));
  const LiveResult result = controller.run();

  ASSERT_EQ(result.report.days.size(), 1u);
  EXPECT_LT(result.stats.virtual_seconds, 86400.0);
  EXPECT_EQ(result.stats.ingested, result.stats.decided);  // no orphaned records
}

TEST(LiveController, StopSignalProducesACoveredPartialReport) {
  LiveController::Options options = live_options();
  std::atomic<bool> stop{false};
  LiveController controller(options, make_generator(options));
  stop.store(true);  // pre-set: the run notices at its first tick boundary
  const LiveResult result = controller.run(&stop);
  EXPECT_TRUE(result.stats.interrupted);
  ASSERT_EQ(result.report.days.size(), 1u);
  EXPECT_EQ(result.stats.ingested, result.stats.decided);
}

#if defined(__linux__)
/// Threads of this process right now.
std::size_t thread_count();

/// thread_count() once the process has created a thread before: sanitizer
/// runtimes start a helper thread of their own at the first thread
/// creation, which must not count against the controller's worker.
std::size_t settled_thread_count() {
  std::thread([] {}).join();
  return thread_count();
}

std::size_t thread_count() {
  std::size_t count = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    closedir(dir);
  }
  return count;
}
#endif

/// A generator day whose poll number `fail_at` fails: it throws, or, given
/// a stop flag, raises it (the SIGINT path) and keeps serving. Records how
/// many polls ran off the calling thread and how many threads it saw.
class FailingSource : public EventSource {
 public:
  FailingSource(const LiveController::Options& options, int fail_at, std::atomic<bool>* stop)
      : inner_(make_generator(options)), fail_at_(fail_at), stop_(stop) {}

  std::size_t poll(double horizon, std::size_t max, trace::FlowTrace& out) override {
    if (std::this_thread::get_id() != caller_) ++worker_polls;
#if defined(__linux__)
    peak_threads = std::max(peak_threads.load(), thread_count());
#endif
    if (++polls_ == fail_at_) {
      if (stop_ == nullptr) throw std::runtime_error("source failed mid-day");
      stop_->store(true);
    }
    return inner_->poll(horizon, max, out);
  }
  bool exhausted() const override { return inner_->exhausted(); }
  std::string describe() const override { return "failing " + inner_->describe(); }

  std::atomic<int> worker_polls{0};
  std::atomic<std::size_t> peak_threads{0};

 private:
  std::unique_ptr<EventSource> inner_;
  int fail_at_;
  std::atomic<bool>* stop_;
  std::atomic<int> polls_{0};
  std::thread::id caller_ = std::this_thread::get_id();
};

TEST(LiveController, PrefetchWorkerIsJoinedWhenTheSourceThrowsMidDay) {
  const LiveController::Options options = live_options();
  auto source = std::make_unique<FailingSource>(options, /*fail_at=*/40, nullptr);
  FailingSource& probe = *source;
#if defined(__linux__)
  const std::size_t before = settled_thread_count();
#endif
  {
    LiveController controller(options, std::move(source));
    EXPECT_THROW(controller.run(), std::runtime_error);
    // The poll thread is gone as soon as run() unwinds, not only once the
    // controller is destroyed.
#if defined(__linux__)
    EXPECT_EQ(thread_count(), before);
    EXPECT_EQ(probe.peak_threads.load(), before + 1);  // one persistent worker
#endif
    EXPECT_GT(probe.worker_polls.load(), 0);
  }
}

TEST(LiveController, PrefetchWorkerIsJoinedWhenTheStopFlagFires) {
  const LiveController::Options options = live_options();
  std::atomic<bool> stop{false};
  auto source = std::make_unique<FailingSource>(options, /*fail_at=*/40, &stop);
  FailingSource& probe = *source;
#if defined(__linux__)
  const std::size_t before = settled_thread_count();
#endif
  LiveController controller(options, std::move(source));
  const LiveResult result = controller.run(&stop);
#if defined(__linux__)
  EXPECT_EQ(thread_count(), before);
  EXPECT_EQ(probe.peak_threads.load(), before + 1);
#endif
  EXPECT_TRUE(stop.load());
  EXPECT_TRUE(result.stats.interrupted);
  EXPECT_GT(result.stats.virtual_seconds, 0.0);
  EXPECT_LT(result.stats.virtual_seconds, options.scenario.duration);
  EXPECT_EQ(result.stats.ingested, result.stats.decided);
  EXPECT_GT(probe.worker_polls.load(), 0);
}

TEST(LiveControllerValidation, DropSheddingRequiresWallPacing) {
  LiveController::Options options = live_options();
  options.overflow = OverflowPolicy::kDropNewest;  // pace stays kVirtual
  EXPECT_THROW(LiveController(options, make_generator(options)),
               util::InvalidArgument);
}

TEST(LiveControllerValidation, NonFiniteOrOverflowingPacingIsRefused) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const auto refused = [](void (*tweak)(LiveController::Options&)) {
    LiveController::Options options = live_options();
    options.pace = PaceMode::kWall;
    tweak(options);
    EXPECT_THROW(LiveController(options, make_generator(options)),
                 util::InvalidArgument);
  };
  refused([](LiveController::Options& o) { o.speedup = inf; });
  refused([](LiveController::Options& o) { o.speedup = std::nan(""); });
  refused([](LiveController::Options& o) { o.tick_virtual_sec = inf; });
  refused([](LiveController::Options& o) { o.tick_wall_sec = inf; });
  // Finite, but its nanosecond count does not fit a uint64_t.
  refused([](LiveController::Options& o) { o.tick_wall_sec = 1e27; });
  refused([](LiveController::Options& o) { o.heartbeat_sec = 1e27; });
  refused([](LiveController::Options& o) { o.heartbeat_sec = inf; });
}

TEST(LiveControllerValidation, RunIsOnce) {
  LiveController::Options options = live_options();
  LiveController controller(options, make_generator(options));
  controller.run();
  EXPECT_THROW(controller.run(), util::InvalidState);
}

}  // namespace
}  // namespace insomnia::live
