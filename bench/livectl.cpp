// Online-mode daemon (not a paper artefact): runs the src/live/ streaming
// fleet controller over an EventSource — the deterministic generator, a
// tailed trace file, or a listening socket — pacing the paired baseline +
// scheme day either in gated virtual time (bit-identical to an offline
// engine01_run over the same records; scripts/check.sh byte-compares the
// two) or pinned to the wall clock. SIGINT/SIGTERM drain gracefully: queued
// records still get decisions, the day drains, and the final report covers
// the span actually simulated.
//
// Usage: livectl [--source gen|tail|socket] [--path PATH] [--port N]
//                [--follow] [--pace virtual|wall] [--preset NAME] [--seed S]
//                [--bins N] [--tick-ms DUR] [--tick-virtual SEC]
//                [--duration DUR] [--speed F] [--rate EV_PER_SEC]
//                [--queue N] [--overflow backpressure|drop] [--record PATH]
//                [--fault-spec SPEC] [--list-faults] [--scheme NAME]
//                [--threads N] [--json PATH] [--trace PATH]
//                [--list-presets] [--list-schemes]
//
// --json writes the structured RunReport (same schema as engine01_run);
// with telemetry enabled it carries the "live.ingest_decision_ns" p99
// histogram in its telemetry block. --record mirrors every accepted record
// to a flow-trace file so a live day can be replayed offline.
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "bench_common.h"
#include "live/event_source.h"
#include "live/live_controller.h"
#include "live/socket_source.h"
#include "live/tail_source.h"
#include "obs/heartbeat.h"
#include "resilience/fault_plan.h"
#include "util/duration.h"

namespace {

std::atomic<bool> g_stop{false};

void handle_stop_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace insomnia;
  using live::LiveController;

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  std::string source_kind = "gen";
  std::string path;
  int port = -1;
  bool follow = false;
  std::string preset;
  double rate = 0.0;
  LiveController::Options options;

  try {
    for (int i = 1; i < argc; ++i) {
      if (bench::handle_common_flag(argc, argv, i)) continue;
      const std::string arg = argv[i];
      const auto value = [&](const char* flag) -> std::string {
        if (i + 1 >= argc) throw util::InvalidArgument(std::string(flag) + " needs a value");
        return argv[++i];
      };
      const auto duration_value = [&](const char* flag,
                                      util::DurationUnit bare) -> double {
        const std::string text = value(flag);
        const auto parsed = util::parse_duration_seconds(text, bare);
        util::require(parsed.has_value(), std::string(flag) + " got \"" + text +
                                              "\" — expected " +
                                              util::duration_grammar_help());
        return *parsed;
      };
      if (arg == "--source") {
        source_kind = value("--source");
        util::require(source_kind == "gen" || source_kind == "tail" ||
                          source_kind == "socket",
                      "--source must be gen, tail or socket");
      } else if (arg == "--path") {
        path = value("--path");
      } else if (arg == "--port") {
        const auto parsed = util::parse_positive_int(value("--port"));
        util::require(parsed.has_value() && *parsed <= 65535,
                      "--port must be a TCP port number");
        port = *parsed;
      } else if (arg == "--follow") {
        follow = true;
      } else if (arg == "--pace") {
        const std::string pace = value("--pace");
        util::require(pace == "virtual" || pace == "wall",
                      "--pace must be virtual or wall");
        options.pace = pace == "virtual" ? live::PaceMode::kVirtual
                                         : live::PaceMode::kWall;
      } else if (arg == "--preset") {
        preset = value("--preset");
      } else if (arg == "--seed") {
        const auto parsed = util::parse_uint64(value("--seed"));
        util::require(parsed.has_value(), "--seed must be an unsigned 64-bit integer");
        options.seed = *parsed;
      } else if (arg == "--bins") {
        const auto parsed = util::parse_positive_int(value("--bins"));
        util::require(parsed.has_value(), "--bins must be a positive integer");
        options.bins = static_cast<std::size_t>(*parsed);
      } else if (arg == "--tick-ms") {
        options.tick_wall_sec = duration_value("--tick-ms", util::DurationUnit::kMilliseconds);
        util::require(options.tick_wall_sec > 0, "--tick-ms must be positive");
      } else if (arg == "--tick-virtual") {
        const auto parsed = util::parse_double(value("--tick-virtual"));
        util::require(parsed.has_value() && *parsed > 0,
                      "--tick-virtual must be a positive number of virtual seconds");
        options.tick_virtual_sec = *parsed;
      } else if (arg == "--duration") {
        options.max_wall_sec = duration_value("--duration", util::DurationUnit::kSeconds);
        util::require(options.max_wall_sec > 0, "--duration must be positive");
      } else if (arg == "--speed") {
        const auto parsed = util::parse_double(value("--speed"));
        util::require(parsed.has_value() && *parsed > 0,
                      "--speed must be a positive virtual-seconds-per-wall-second factor");
        options.speedup = *parsed;
      } else if (arg == "--rate") {
        const auto parsed = util::parse_double(value("--rate"));
        util::require(parsed.has_value() && *parsed > 0,
                      "--rate must be a positive events-per-second target");
        rate = *parsed;
      } else if (arg == "--queue") {
        const auto parsed = util::parse_positive_int(value("--queue"));
        util::require(parsed.has_value(), "--queue must be a positive integer");
        options.queue_capacity = static_cast<std::size_t>(*parsed);
      } else if (arg == "--overflow") {
        const std::string policy = value("--overflow");
        util::require(policy == "backpressure" || policy == "drop",
                      "--overflow must be backpressure or drop");
        options.overflow = policy == "drop" ? live::OverflowPolicy::kDropNewest
                                            : live::OverflowPolicy::kBackpressure;
      } else if (arg == "--record") {
        options.record_path = value("--record");
      } else if (arg == "--fault-spec") {
        resilience::set_global_fault_plan(
            resilience::parse_fault_plan(value("--fault-spec")));
      } else if (arg == "--list-faults") {
        std::cout << resilience::fault_spec_help();
        return 0;
      } else {
        throw util::InvalidArgument(
            "unknown argument \"" + arg + "\"; usage: " + argv[0] +
            " [--source gen|tail|socket] [--path PATH] [--port N] [--follow]"
            " [--pace virtual|wall] [--preset NAME] [--seed S] [--bins N]"
            " [--tick-ms DUR] [--tick-virtual SEC] [--duration DUR] [--speed F]"
            " [--rate EV_PER_SEC] [--queue N] [--overflow backpressure|drop]"
            " [--record PATH] [--fault-spec SPEC] [--list-faults]" +
            bench::common_usage());
      }
    }
    bench::threads_from_env_or_exit();

    const core::ScenarioPreset& selected =
        core::find_scenario_preset(preset.empty() ? "paper-default" : preset);
    options.scenario = selected.scenario;
    options.preset_name = selected.name;
    if (bench::scheme_override() != nullptr) {
      options.scheme = bench::scheme_override()->name;
    }
    // Heartbeat to stderr: 2 s by default when wall-paced (a daemon should
    // say it is alive), off for batch virtual replays; INSOMNIA_HEARTBEAT
    // retunes or silences it.
    options.heartbeat_sec = obs::Heartbeat::interval_from_env(
        options.pace == live::PaceMode::kWall ? 2.0 : 0.0);

    std::unique_ptr<live::EventSource> source;
    if (source_kind == "gen") {
      util::require(path.empty() && port < 0 && !follow,
                    "--path/--port/--follow apply to tail and socket sources");
      auto generator = std::make_unique<live::GeneratorSource>(
          options.scenario.traffic, options.seed, /*days=*/1);
      if (rate > 0.0) {
        util::require(options.pace == live::PaceMode::kWall,
                      "--rate paces the wall clock; use --pace wall");
        const double natural = generator->mean_records_per_virtual_sec();
        util::require(natural > 0, "the generator produced an empty day");
        options.speedup = rate / natural;
      }
      source = std::move(generator);
    } else if (source_kind == "tail") {
      util::require(!path.empty(), "--source tail needs --path FILE");
      util::require(rate <= 0, "--rate applies to the gen source only");
      source = std::make_unique<live::TailSource>(live::TailSource::Options{path, follow});
      // Echo the replayed file like engine01_run --trace-file does, so a
      // virtual-pace tail replay byte-matches the offline report.
      options.trace_file = path;
    } else {
      util::require(!path.empty() || port >= 0,
                    "--source socket needs --path SOCK or --port N");
      util::require(rate <= 0, "--rate applies to the gen source only");
      source = std::make_unique<live::SocketSource>(
          live::SocketSource::Options{path, port});
    }

    bench::banner("livectl", "online fleet controller — streaming ingest over "
                             "the paired-day engine");
    std::cout << "source : " << source->describe() << "\n"
              << "pace   : "
              << (options.pace == live::PaceMode::kVirtual
                      ? std::string("virtual (gated replay)")
                      : "wall (speedup " + bench::num(options.speedup, 1) + "x, tick " +
                            bench::num(options.tick_wall_sec * 1e3, 0) + " ms)")
              << "\n"
              << "scheme : " << options.scheme << ", preset " << options.preset_name
              << ", seed " << options.seed << "\n\n";

    LiveController controller(std::move(options), std::move(source));
    const live::LiveResult result = controller.run(&g_stop);
    const core::RunReport& report = result.report;
    const live::LiveStats& stats = result.stats;

    util::require(!report.days.empty(), "live run produced no day");
    const core::EngineDay& day = report.days.front();
    std::cout << "day report: " << bench::pct(day.savings) << " savings, "
              << bench::pct(day.isp_share) << " ISP share, "
              << bench::num(day.peak_online_gateways, 1) << " peak online gateways, "
              << day.wake_events << " wakes, " << day.flows << " flows\n"
              << "live stats:\n"
              << "  ingested " << stats.ingested << " records in "
              << bench::num(stats.wall_seconds, 2) << " s ("
              << bench::num(stats.ingest_events_per_sec, 0) << " ev/s), dropped "
              << stats.dropped << ", peak queue " << stats.peak_queue_depth << "\n"
              << "  decided " << stats.decided << "; ingest->decision p50/p95/p99/max = "
              << bench::num(stats.latency.p50 / 1e3, 1) << "/"
              << bench::num(stats.latency.p95 / 1e3, 1) << "/"
              << bench::num(stats.latency.p99 / 1e3, 1) << "/"
              << bench::num(stats.latency.max / 1e3, 1) << " us ("
              << stats.latency.count << " samples)\n"
              << "  " << stats.ticks << " ticks (" << stats.tick_overruns
              << " overruns), virtual span " << bench::num(stats.virtual_seconds, 0)
              << " s" << (stats.interrupted ? ", interrupted — drained cleanly" : "")
              << "\n";

    if (!bench::json_path().empty()) {
      std::ofstream out(bench::json_path());
      util::require(static_cast<bool>(out), "cannot write " + bench::json_path());
      out << report.to_json(/*include_telemetry=*/obs::enabled()) << "\n";
      std::cout << "\nwrote " << bench::json_path() << "\n";
    }
    if (!bench::trace_path().empty()) {
      obs::write_chrome_trace(bench::trace_path());
      std::cout << "wrote " << bench::trace_path()
                << " (chrome://tracing / ui.perfetto.dev)\n";
    }
  } catch (const util::InvalidArgument& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
  return 0;
}
