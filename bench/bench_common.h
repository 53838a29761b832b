// Shared helpers for the figure-regeneration benches: consistent headers,
// paper-vs-measured rows, environment-controlled run counts, scenario
// preset selection (--preset NAME / INSOMNIA_PRESET), scheme selection from
// the registry (--scheme NAME / --list-schemes), and a structured mirror of
// everything a driver prints, written as JSON by --json PATH.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/experiments.h"
#include "core/scenario_presets.h"
#include "core/scheme_registry.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/trace_export.h"
#include "util/error.h"
#include "util/json_writer.h"
#include "util/strings.h"
#include "util/table.h"

namespace insomnia::bench {

/// Structured mirror of a driver's output: the banner, scalar facts, every
/// paper-vs-measured comparison row, and any number series the driver adds.
/// Serialized with stable key order via util::JsonWriter when --json PATH
/// is given.
class DriverReport {
 public:
  void set_banner(const std::string& id, const std::string& title) {
    id_ = id;
    title_ = title;
  }

  /// Scalar facts in insertion order; last write to a key wins its slot.
  void set_field(const std::string& key, const std::string& value) {
    set_encoded(key, '"' + util::json_escape(value) + '"');
  }
  void set_field(const std::string& key, double value) {
    set_encoded(key, util::json_number(value));
  }
  void set_field(const std::string& key, long long value) {
    set_encoded(key, util::json_number(static_cast<std::int64_t>(value)));
  }
  void set_field(const std::string& key, unsigned long long value) {
    set_encoded(key, util::json_number(static_cast<std::uint64_t>(value)));
  }

  /// A pre-encoded JSON value (an object or array built with
  /// util::JsonWriter) in the scalar-field slot — for structured blocks
  /// like the fleet driver's degraded-coverage report.
  void set_raw_field(const std::string& key, std::string encoded) {
    set_encoded(key, std::move(encoded));
  }

  void add_compare(const std::string& what, const std::string& paper,
                   const std::string& measured) {
    compares_.push_back({what, paper, measured});
  }

  void add_series(const std::string& name, std::vector<double> values) {
    series_.push_back({name, std::move(values)});
  }

  std::string to_json() const {
    util::JsonWriter json;
    json.begin_object();
    json.field("artefact", id_);
    json.field("title", title_);
    for (const auto& [key, encoded] : fields_) json.key(key).raw_value(encoded);
    json.key("comparisons").begin_array();
    for (const CompareRow& row : compares_) {
      json.begin_object();
      json.field("what", row.what);
      json.field("paper", row.paper);
      json.field("measured", row.measured);
      json.end_object();
    }
    json.end_array();
    json.key("series").begin_object();
    for (const auto& [name, values] : series_) json.number_array(name, values);
    json.end_object();
    // Run-dependent (wall times, RSS), so byte-compare consumers run with
    // INSOMNIA_OBS=off or strip the key (scripts/check.sh does both).
    if (obs::enabled()) obs::write_telemetry(json);
    json.end_object();
    return json.str();
  }

 private:
  struct CompareRow {
    std::string what;
    std::string paper;
    std::string measured;
  };

  void set_encoded(const std::string& key, std::string encoded) {
    for (auto& [existing, value] : fields_) {
      if (existing == key) {
        value = std::move(encoded);
        return;
      }
    }
    fields_.push_back({key, std::move(encoded)});
  }

  std::string id_;
  std::string title_;
  std::vector<std::pair<std::string, std::string>> fields_;  ///< key -> encoded JSON
  std::vector<CompareRow> compares_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
};

/// The driver's structured report (every driver has exactly one).
inline DriverReport& report() {
  static DriverReport instance;
  return instance;
}

namespace detail {

inline std::string& json_path() {
  static std::string path;
  return path;
}

inline std::string& trace_path() {
  static std::string path;
  return path;
}

// The --scheme override is stored by NAME and resolved against the registry
// at every use. Storing the SchemeSpec* (as this used to) dangles the
// moment any scheme registered after flag parsing reallocates the
// registry's backing vector (regression: tests/test_bench_common.cpp).
inline std::string& scheme_override_name_slot() {
  static std::string name;
  return name;
}

inline bool& scheme_override_appended_slot() {
  static bool appended = false;
  return appended;
}

}  // namespace detail

/// Prints the standard banner for one regenerated artefact.
inline void banner(const std::string& id, const std::string& title) {
  std::cout << "==============================================================\n"
            << id << " — " << title << "\n"
            << "==============================================================\n";
  report().set_banner(id, title);
}

/// Prints one "paper vs measured" comparison line (mirrored into --json).
inline void compare(const std::string& what, const std::string& paper,
                    const std::string& measured) {
  std::cout << "  " << what << ": paper " << paper << " | measured " << measured << "\n";
  report().add_compare(what, paper, measured);
}

inline std::string pct(double fraction, int decimals = 1) {
  return util::format_percent(fraction, decimals);
}

inline std::string num(double value, int decimals = 2) {
  return util::format_fixed(value, decimals);
}

/// The --scheme override, or nullptr when the driver's default applies.
/// Resolved against the registry at call time, so the returned pointer is
/// valid even when schemes were registered after flag parsing.
inline const core::SchemeSpec* scheme_override() {
  const std::string& name = detail::scheme_override_name_slot();
  return name.empty() ? nullptr : &core::find_scheme(name);
}

/// The --json output path ("" when not requested). Most drivers let
/// finish() write the DriverReport here; drivers whose natural structured
/// result is something richer (engine01_run's RunReport) write it
/// themselves.
inline const std::string& json_path() { return detail::json_path(); }

/// The --trace output path ("" when not requested). finish() exports the
/// Chrome trace here; tracing itself is switched on at flag-parse time so
/// the whole run is captured.
inline const std::string& trace_path() { return detail::trace_path(); }

/// The scheme this driver studies: the --scheme override when given, else
/// the named registry default. Records the choice in the report.
inline const core::SchemeSpec& scheme_or(const std::string& default_name) {
  const core::SchemeSpec& spec =
      scheme_override() != nullptr ? *scheme_override() : core::find_scheme(default_name);
  report().set_field("scheme", spec.name);
  report().set_field("scheme_display", spec.display);
  return spec;
}

/// Prints one row per day-series bin: the bin index, then every series'
/// value in that bin times `scale`, to one decimal.
inline void print_bin_table(std::vector<std::string> header,
                            const std::vector<const std::vector<double>*>& series,
                            double scale = 1.0) {
  util::TextTable table;
  table.set_header(std::move(header));
  for (std::size_t bin = 0; bin < series.front()->size(); ++bin) {
    std::vector<std::string> row{std::to_string(bin)};
    for (const std::vector<double>* values : series) row.push_back(num((*values)[bin] * scale, 1));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

/// Companion of run_figure (below): prints (and mirrors into the report)
/// the override scheme's headline numbers next to the paper schemes the
/// driver formats by hand. No-op when the override was already part of the
/// driver's comparison (its numbers are in the driver's own table).
inline void report_scheme_override(const std::vector<core::RunReport>& reports) {
  const core::SchemeSpec* spec = scheme_override();
  if (spec == nullptr || !detail::scheme_override_appended_slot()) return;
  const core::RunReport& r = core::find_report(reports, spec->name);
  std::cout << "\n--scheme " << spec->name << " (" << spec->display << "):\n";
  compare(spec->name + " day savings", "n/a (--scheme row)", pct(r.day_savings));
  compare(spec->name + " ISP share", "n/a (--scheme row)", pct(r.day_isp_share));
  compare(spec->name + " peak online gateways", "n/a (--scheme row)",
          num(r.peak_online_gateways, 1));
  compare(spec->name + " wake events/run", "n/a (--scheme row)", num(r.mean_wake_events, 0));
}

/// For artefacts with no sleep scheme in them (trace/PHY figures): tell the
/// user a --scheme override cannot change anything rather than silently
/// ignoring it.
inline void note_scheme_not_applicable() {
  if (scheme_override() != nullptr) {
    std::cout << "(note: --scheme " << scheme_override()->name
              << " has no effect — this artefact involves no sleep scheme)\n";
  }
}

/// Writes the structured report when --json PATH was given. Every driver
/// returns finish() (or finish(code)) from main so the flag works uniformly.
inline int finish(int code = 0) {
  if (code != 0) return code;
  const std::string& path = detail::json_path();
  if (!path.empty()) {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "error: cannot write " << path << "\n";
      return 1;
    }
    out << report().to_json() << "\n";
    std::cout << "\nwrote " << path << "\n";
  }
  const std::string& trace = detail::trace_path();
  if (!trace.empty()) {
    try {
      obs::write_chrome_trace(trace);
    } catch (const std::exception& error) {
      std::cerr << "error: cannot write " << trace << ": " << error.what() << "\n";
      return 1;
    }
    std::cout << "wrote " << trace << " (chrome://tracing / ui.perfetto.dev)\n";
  }
  return 0;
}

/// Validates INSOMNIA_THREADS with the drivers' CLI error convention and
/// returns the resolved worker count. Even drivers that never shard call
/// this, so a typo'd value fails fast everywhere instead of being silently
/// ignored by some binaries.
inline int threads_from_env_or_exit() {
  try {
    return exec::default_thread_count();
  } catch (const util::InvalidArgument& error) {
    std::cerr << error.what() << "\n";
    std::exit(1);
  }
}

/// Handles the flags every driver shares. Returns true when argv[i] (plus a
/// possible value, past which `i` is advanced) was consumed:
///   * `--threads N` / `--threads=N` — worker threads, parsed with
///     util::parse_positive_int and exported as INSOMNIA_THREADS (overriding
///     any inherited value) so it reaches exec::default_thread_count() in
///     every layer without per-driver plumbing,
///   * `--scheme NAME` / `--scheme=NAME` — selects a registered scheme; an
///     unknown name throws util::InvalidArgument listing the valid ones,
///   * `--json PATH` / `--json=PATH` — where finish() writes the report,
///   * `--trace PATH` / `--trace=PATH` — enables phase tracing and makes
///     finish() export a Chrome trace-event JSON (Perfetto-loadable) here,
///   * `--list-presets` — prints the scenario registry and exits 0,
///   * `--list-schemes` — prints the scheme registry and exits 0.
/// Malformed values throw util::InvalidArgument (callers print and exit 1).
inline bool handle_common_flag(int argc, char** argv, int& i) {
  const std::string arg = argv[i];
  const auto flag_value = [&](const char* flag) -> std::string {
    if (i + 1 >= argc) throw util::InvalidArgument(std::string(flag) + " needs a value");
    return argv[++i];
  };
  std::string threads_value;
  if (arg == "--threads") {
    threads_value = flag_value("--threads");
  } else if (util::starts_with(arg, "--threads=")) {
    threads_value = arg.substr(10);
  } else if (arg == "--scheme" || util::starts_with(arg, "--scheme=")) {
    const std::string name =
        arg == "--scheme" ? flag_value("--scheme") : arg.substr(9);
    core::find_scheme(name);  // typos fail at parse time, with the valid list
    detail::scheme_override_name_slot() = name;
    return true;
  } else if (arg == "--json" || util::starts_with(arg, "--json=")) {
    detail::json_path() = arg == "--json" ? flag_value("--json") : arg.substr(7);
    util::require(!detail::json_path().empty(), "--json needs a non-empty path");
    return true;
  } else if (arg == "--trace" || util::starts_with(arg, "--trace=")) {
    detail::trace_path() = arg == "--trace" ? flag_value("--trace") : arg.substr(8);
    util::require(!detail::trace_path().empty(), "--trace needs a non-empty path");
    // Switch event capture on now so everything after flag parsing lands in
    // the trace. With INSOMNIA_OBS=off the file still comes out valid, just
    // without events.
    obs::enable_tracing();
    return true;
  } else if (arg == "--list-presets") {
    for (const core::ScenarioPreset& preset : core::scenario_presets()) {
      std::cout << preset.name << " — " << preset.summary << "\n";
    }
    std::exit(0);
  } else if (arg == "--list-schemes") {
    for (const core::SchemeSpec& spec : core::scheme_registry().specs()) {
      std::cout << spec.name << " — " << spec.display << " — " << spec.summary << "\n";
    }
    std::exit(0);
  } else {
    return false;
  }
  const auto parsed = util::parse_positive_int(threads_value);
  util::require(parsed.has_value(), "--threads must be a positive integer, got \"" +
                                        threads_value + "\"");
  setenv("INSOMNIA_THREADS", std::to_string(*parsed).c_str(), /*overwrite=*/1);
  return true;
}

/// The usage tail shared by every driver's error message.
inline const char* common_usage() {
  return " [--preset NAME] [--scheme NAME] [--threads N] [--json PATH]"
         " [--trace PATH] [--list-presets] [--list-schemes]";
}

/// For drivers without driver-specific flags or a scenario to swap:
/// accepts only the shared flags; anything else (including --preset) prints
/// the problem and exits 1.
inline void parse_common_args_or_exit(int argc, char** argv) {
  try {
    for (int i = 1; i < argc; ++i) {
      if (handle_common_flag(argc, argv, i)) continue;
      throw util::InvalidArgument(
          "unknown argument \"" + std::string(argv[i]) + "\"; usage: " + argv[0] +
          " [--scheme NAME] [--threads N] [--json PATH] [--trace PATH]"
          " [--list-presets] [--list-schemes]");
    }
    threads_from_env_or_exit();
  } catch (const util::InvalidArgument& error) {
    std::cerr << error.what() << "\n";
    std::exit(1);
  }
}

/// Resolves the scenario every driver simulates: `--preset NAME` (or
/// `--preset=NAME`) on the command line wins, then the INSOMNIA_PRESET
/// environment variable, then the paper default. Prints which preset is in
/// effect. Also accepts the shared flags (see handle_common_flag). Any
/// other argument, an unknown preset or scheme name, or a malformed
/// INSOMNIA_THREADS prints the problem and exits 1 — a typo must fail fast,
/// not silently run a different experiment.
inline core::ScenarioConfig scenario_from_args(int argc, char** argv) {
  try {
    const core::ScenarioPreset* selected = nullptr;
    for (int i = 1; i < argc; ++i) {
      if (handle_common_flag(argc, argv, i)) continue;
      const std::string arg = argv[i];
      if (arg == "--preset") {
        if (i + 1 >= argc) throw util::InvalidArgument("--preset needs a name");
        selected = &core::find_scenario_preset(argv[i + 1]);
        ++i;
      } else if (util::starts_with(arg, "--preset=")) {
        selected = &core::find_scenario_preset(arg.substr(9));
      } else {
        throw util::InvalidArgument("unknown argument \"" + arg + "\"; usage: " + argv[0] +
                                    common_usage());
      }
    }
    threads_from_env_or_exit();
    if (selected == nullptr) selected = &core::scenario_preset_from_env();
    std::cout << "scenario preset: " << selected->name << " — " << selected->summary << "\n";
    report().set_field("preset", selected->name);
    return selected->scenario;
  } catch (const util::InvalidArgument& error) {
    std::cerr << error.what() << "\n";
    std::exit(1);
  }
}

/// core::runs_from_env with the drivers' CLI error convention: a malformed
/// INSOMNIA_RUNS prints the problem and exits 1 instead of terminating.
inline int runs_from_env(int fallback) {
  try {
    const int runs = core::runs_from_env(fallback);
    report().set_field("runs", static_cast<long long>(runs));
    return runs;
  } catch (const util::InvalidArgument& error) {
    std::cerr << error.what() << "\n";
    std::exit(1);
  }
}

/// For drivers comparing a fixed paper scheme list through core::Engine:
/// INSOMNIA_RUNS paired days (default 3; the paper uses 10) of the scenario
/// from the command line (scenario_from_args), with hourly day series and,
/// when `fct` is set, FCTs. Prints the run count (`note` follows it), then
/// runs `schemes` over the same days. The --scheme override joins the
/// comparison unless already listed. "soi" is prepended — it is the Fig. 9b
/// fairness reference and must run before any fairness-paired scheme —
/// everything else is appended (after soi, if listed).
inline std::vector<core::RunReport> run_figure(int argc, char** argv,
                                               std::vector<std::string> schemes,
                                               bool fct = false, const std::string& note = "") {
  core::RunSpec spec;
  spec.scenario = scenario_from_args(argc, argv);
  spec.runs = runs_from_env(3);
  spec.bins = 24;
  spec.fct = fct;
  const core::SchemeSpec* extra = scheme_override();
  if (extra != nullptr &&
      std::find(schemes.begin(), schemes.end(), extra->name) == schemes.end()) {
    schemes.insert(extra->name == "soi" ? schemes.begin() : schemes.end(), extra->name);
    detail::scheme_override_appended_slot() = true;
  }
  std::cout << "(" << spec.runs << " paired runs" << note << ")\n\n";
  return core::Engine().run(spec, schemes);
}

/// Averages one statistic over per-run sweep rows, folding in run-index
/// order with the historical `total += x / runs` form — the accumulation
/// sequence every abl sweep used serially, kept in one place so the
/// bit-identity convention cannot drift between drivers.
template <typename Row, typename Get>
double mean_over_runs(const std::vector<Row>& rows, Get get) {
  // An empty sweep would silently divide by zero and put NaN in every
  // driver table and --json report; fail loudly instead.
  util::require(!rows.empty(), "mean_over_runs needs at least one sweep row");
  const int runs = static_cast<int>(rows.size());
  double total = 0.0;
  for (const Row& row : rows) total += get(row) / runs;
  return total;
}

}  // namespace insomnia::bench
