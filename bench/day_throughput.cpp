// Perf harness (not a paper artefact): measures how fast paired days run.
// For every scenario preset it makes one core::Engine::run call — topology,
// per-run trace generation, the traffic-free no-sleep baseline and the
// headline BH2 scheme day, the unit every figure and the city fleet is
// built from — and reports wall clock, scheme-day events/sec and flows/sec,
// then writes the machine readable BENCH_day_throughput.json consumed by
// scripts/perfbench.sh.
//
// Usage: day_throughput [--runs N] [--smoke] [--out PATH]
//                       [--threads N] [--list-presets]
//   --runs N   paired days per preset (default 3)
//   --smoke    CI mode: one paired day per preset
//   --out PATH where to write the JSON (default: BENCH_day_throughput.json)
//
// The harness is deliberately single-threaded: it measures the paired-day
// kernel, not the sharding engine (scripts/speedup.sh covers that half).
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "core/scenario_presets.h"
#include "util/json_writer.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace insomnia;

struct PresetResult {
  std::string name;
  int days = 0;                 ///< paired days (one simulated scheme day each)
  std::uint64_t events = 0;     ///< simulator events dispatched
  std::uint64_t flows = 0;      ///< trace flows replayed
  double wall_ms = 0.0;
};

double events_per_sec(const PresetResult& r) {
  return r.wall_ms > 0.0 ? static_cast<double>(r.events) / (r.wall_ms / 1e3) : 0.0;
}

double flows_per_sec(const PresetResult& r) {
  return r.wall_ms > 0.0 ? static_cast<double>(r.flows) / (r.wall_ms / 1e3) : 0.0;
}

double wall_ms_per_day(const PresetResult& r) {
  return r.days > 0 ? r.wall_ms / static_cast<double>(r.days) : 0.0;
}

void write_result(util::JsonWriter& json, const PresetResult& r) {
  json.begin_object();
  json.field("days", r.days);
  json.field("events", r.events);
  json.field("flows", r.flows);
  json.field("wall_ms", r.wall_ms);
  json.field("wall_ms_per_day", wall_ms_per_day(r));
  json.field("events_per_sec", events_per_sec(r));
  json.field("flows_per_sec", flows_per_sec(r));
  json.end_object();
}

PresetResult run_preset(const core::ScenarioPreset& preset, const core::SchemeSpec& scheme,
                        int runs, std::uint64_t seed) {
  core::RunSpec spec;
  spec.preset = preset.name;
  spec.scheme = scheme.name;
  spec.seed = seed;
  spec.runs = runs;
  spec.threads = 1;

  // force=true: the harness must keep timing even under INSOMNIA_OBS=off
  // (the CI overhead gate compares exactly those two modes).
  obs::ScopeTimer timer("bench.preset_days", /*force=*/true);
  const core::RunReport report = core::Engine().run(spec);

  PresetResult result;
  result.name = preset.name;
  result.wall_ms = timer.stop_ms();
  result.days = runs;
  result.events = report.executed_events;
  for (const core::EngineDay& day : report.days) result.flows += day.flows;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int runs = 3;
  std::string out_path = "BENCH_day_throughput.json";
  try {
    for (int i = 1; i < argc; ++i) {
      if (bench::handle_common_flag(argc, argv, i)) continue;
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        runs = 1;
      } else if (arg == "--runs") {
        util::require(i + 1 < argc, "--runs needs a count");
        const auto parsed = util::parse_positive_int(argv[++i]);
        util::require(parsed.has_value(), "--runs must be a positive integer");
        runs = *parsed;
      } else if (arg == "--out") {
        util::require(i + 1 < argc, "--out needs a path");
        out_path = argv[++i];
      } else {
        throw util::InvalidArgument(
            "unknown argument \"" + arg + "\"; usage: " + argv[0] +
            " [--runs N] [--smoke] [--out PATH] [--scheme NAME] [--json PATH]"
            " [--threads N] [--list-presets] [--list-schemes]");
      }
    }
  } catch (const util::InvalidArgument& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }

  bench::banner("BENCH day_throughput",
                "paired no-sleep + BH2 day wall-clock across presets");
  const core::SchemeSpec& scheme = bench::scheme_or("bh2-kswitch");
  std::cout << runs << " paired day(s) per preset (no-sleep + " << scheme.display
            << "), single worker, trace and topology generation included\n\n";

  const std::uint64_t seed = 42;
  std::vector<PresetResult> results;
  for (const core::ScenarioPreset& preset : core::scenario_presets()) {
    results.push_back(run_preset(preset, scheme, runs, seed));
  }

  util::TextTable table;
  table.set_header({"preset", "days", "events", "wall ms/day", "events/sec", "flows/sec"});
  PresetResult total;
  total.name = "total";
  for (const PresetResult& r : results) {
    table.add_row({r.name, std::to_string(r.days), std::to_string(r.events),
                   util::format_fixed(wall_ms_per_day(r), 1),
                   util::format_fixed(events_per_sec(r), 0),
                   util::format_fixed(flows_per_sec(r), 0)});
    total.days += r.days;
    total.events += r.events;
    total.flows += r.flows;
    total.wall_ms += r.wall_ms;
  }
  table.add_row({total.name, std::to_string(total.days), std::to_string(total.events),
                 util::format_fixed(wall_ms_per_day(total), 1),
                 util::format_fixed(events_per_sec(total), 0),
                 util::format_fixed(flows_per_sec(total), 0)});
  table.print(std::cout);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  char hostname[256] = "unknown";
  if (::gethostname(hostname, sizeof(hostname)) != 0) {
    std::snprintf(hostname, sizeof(hostname), "unknown");
  }
  hostname[sizeof(hostname) - 1] = '\0';

  util::JsonWriter json;
  json.begin_object();
  json.field("benchmark", "day_throughput");
  // The harness is single-threaded by design (see header comment); recorded
  // so snapshot consumers never have to guess.
  json.field("threads", 1);
  json.field("obs_enabled", obs::enabled());
  json.key("host").begin_object();
  json.field("hostname", hostname);
  json.field("hardware_threads",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("compiler", __VERSION__);
  json.end_object();
  json.key("schemes").begin_array();
  json.value("no-sleep").value(scheme.name);
  json.end_array();
  json.field("runs_per_preset", runs);
  json.key("presets").begin_object();
  for (const PresetResult& r : results) {
    json.key(r.name);
    write_result(json, r);
  }
  json.end_object();
  json.key("total");
  write_result(json, total);
  json.end_object();
  out << json.str() << "\n";
  std::cout << "\nwrote " << out_path << "\n";
  bench::report().set_field("events_per_sec_total", events_per_sec(total));
  bench::report().set_field("wall_ms_per_day_total", wall_ms_per_day(total));
  return bench::finish();
}
