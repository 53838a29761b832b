// The repository benchmark's program: runs one workload against the
// simulator's public API, checks its outputs, and prints the metrics as
// human-readable lines followed by one JSON line (the last line of stdout).
//
//   perfbench --workload day|fleet|live --seed N --seconds S --trace 0|1
//             [--setup-only] [--spans-out PATH]
//
// --trace 0 measures the workload end to end with the benchmark's own
// tracing off. --trace 1 runs the layer sweep instead: spans recorded here,
// around the calls the benchmark makes into each module, give the per-layer
// split (the program itself carries no benchmark tracing). --setup-only does
// the workload's set-up and exits; run.py times whole processes of it to
// measure set-up. See README.md for every metric and why each workload
// exists.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arith.h"
#include "city/neighbourhood_sampler.h"
#include "core/day_summary.h"
#include "core/engine.h"
#include "core/scenario_presets.h"
#include "core/scheme_registry.h"
#include "country/country_runner.h"
#include "live/event_source.h"
#include "live/live_controller.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/rss.h"
#include "sim/random.h"
#include "topology/access_topology.h"
#include "trace/synthetic_crawdad.h"

namespace {

using namespace insomnia;
using perfbench::Span;

// `warm-start-testbed` carries paper-default's traffic, so it adds no new
// input size; these four span 100k-522k flows per day.
const std::vector<std::string> kDayPresets = {"paper-default", "dense-urban",
                                              "sparse-rural", "developing-world"};
// Days per preset, each a one-day run of its own derived seed: a day's
// trace size moves by up to 10 % with the seed, and averaging several keeps
// the seed from setting day_ms.
constexpr int kDaysPerPreset = 3;
const char* const kScheme = "bh2-kswitch";
const char* const kLivePreset = "paper-default";
// Live days cycled per iteration, for the same reason.
constexpr int kLiveDays = 4;
// Open-loop offered rate, records per wall second: well under the
// controller's closed-loop capacity (~650k/s), so lag measures pacing and
// hand-over, not a growing backlog.
constexpr double kOfferedRate = 100000.0;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out as Chrome trace events at the end.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  int begin(std::string name, int parent) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), parent, now_ns(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int index) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }
  const Span& at(int index) const { return spans_.at(static_cast<std::size_t>(index)); }
  const std::vector<Span>& spans() const { return spans_; }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                    i == 0 ? "" : ",", s.name.c_str(),
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
      out << line;
    }
    out << "\n]}\n";
  }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records one span when `log` is set; a no-op otherwise (the untraced
/// composition the day check runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent)
      : log_(log), index_(log ? log->begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< printed in the final JSON line
  std::vector<Metric> notes;    ///< printed for people only

  void check(bool ok, std::uint64_t operations, const std::string& what) {
    attempted += operations;
    if (!ok) {
      failed += operations;
      std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
    }
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
};

std::uint64_t waterfills() { return obs::counter("flow.waterfills").value(); }

double peak_rss_mib() {
  return static_cast<double>(obs::rss_peak_bytes()) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// day: one paired day per preset through Engine::run, single thread.
// ---------------------------------------------------------------------------

/// The seed of day `day` of a workload run with `seed`.
std::uint64_t day_seed(std::uint64_t seed, int day) {
  return sim::Random::substream_seed(seed, static_cast<std::uint64_t>(day), 0);
}

/// One paired day through Engine::run, single thread.
core::RunSpec day_spec(const std::string& preset, std::uint64_t seed) {
  core::RunSpec spec;
  spec.preset = preset;
  spec.scheme = kScheme;
  spec.seed = seed;
  spec.runs = 1;
  spec.threads = 1;
  return spec;
}

/// What the traced composition saw, summed over the days composed.
struct DayLayers {
  double wall_ms = 0.0;  ///< the whole composition (the root spans)
  std::map<std::string, double> layer_ms;
  double unattributed_ms = 0.0;
  std::uint64_t days = 0;
  std::uint64_t flows = 0;
  std::uint64_t events_baseline = 0;
  std::uint64_t events_scheme = 0;
  std::uint64_t waterfills = 0;
};

/// Engine::run of a one-day spec, recomposed from the public calls it makes
/// (same substream salts: topology (seed,0,7), trace (seed,0,1), baseline
/// (seed,0,2), scheme (seed,0,100)) so a span can sit around each layer.
/// The output checks hold this report byte-identical to Engine::run's.
core::RunReport compose_day(const core::RunSpec& spec, SpanLog* log, DayLayers* layers) {
  const std::uint64_t seed = spec.seed;
  const std::uint64_t w0 = waterfills();
  const int root_index = log ? static_cast<int>(log->spans().size()) : -1;
  core::RunReport report;
  {
    ScopedSpan root(log, "engine.run", -1);
    const int parent = root.index();

    const core::SchemeSpec& scheme = core::find_scheme(spec.scheme);
    const core::SchemeSpec& baseline_scheme = core::find_scheme("no-sleep");
    const core::ScenarioPreset& preset = core::find_scenario_preset(spec.preset);
    const core::ScenarioConfig& scenario = preset.scenario;

    const topo::AccessTopology topology = [&] {
      ScopedSpan span(log, "topology.build", parent);
      sim::Random rng(sim::Random::substream_seed(seed, 0, 7));
      return topo::make_overlap_topology(scenario.client_count, scenario.degrees, rng);
    }();
    const trace::FlowTrace flows = [&] {
      ScopedSpan span(log, "trace.generate", parent);
      sim::Random rng(sim::Random::substream_seed(seed, 0, 1));
      return trace::SyntheticCrawdadGenerator(scenario.traffic).generate(rng);
    }();
    const core::RunMetrics baseline = [&] {
      ScopedSpan span(log, "core.baseline_day", parent);
      return core::run_scheme(scenario, topology, flows, baseline_scheme,
                              sim::Random::substream_seed(seed, 0, 2));
    }();
    const core::RunMetrics metrics = [&] {
      ScopedSpan span(log, "core.scheme_day", parent);
      return core::run_scheme(scenario, topology, flows, scheme,
                              sim::Random::substream_seed(seed, 0, 100));
    }();
    std::vector<core::PairedDaySummary> days;
    {
      ScopedSpan span(log, "core.summarize", parent);
      days.push_back(core::summarize_paired_day(baseline, metrics,
                                                static_cast<std::uint64_t>(flows.size()),
                                                spec.bins, spec.peak_start, spec.peak_end));
    }
    {
      ScopedSpan span(log, "core.fold", parent);
      report.scheme = scheme.name;
      report.scheme_display = scheme.display;
      report.preset = preset.name;
      report.seed = seed;
      report.runs = 1;
      report.bins = spec.bins;
      report.peak_start = spec.peak_start;
      report.peak_end = spec.peak_end;
      report.clients = scenario.client_count;
      report.gateways = scenario.gateway_count;
      core::fold_paired_days(days, report);
    }
    if (layers != nullptr) {
      ++layers->days;
      layers->flows += flows.size();
      layers->events_baseline += baseline.executed_events;
      layers->events_scheme += metrics.executed_events;
    }
  }
  if (layers != nullptr) {
    layers->waterfills += waterfills() - w0;
    if (log != nullptr) {
      layers->wall_ms += log->at(root_index).ms();
      for (const Span& s : log->spans()) {
        if (s.parent == root_index) layers->layer_ms[s.name] += s.ms();
      }
      layers->unattributed_ms +=
          perfbench::self_ms(log->spans(), static_cast<std::size_t>(root_index));
    }
  }
  return report;
}

/// The day workload's inputs: kDaysPerPreset days of each preset.
std::vector<core::RunSpec> day_specs(std::uint64_t seed) {
  std::vector<core::RunSpec> specs;
  for (const std::string& preset : kDayPresets) {
    for (int day = 0; day < kDaysPerPreset; ++day) {
      specs.push_back(day_spec(preset, day_seed(seed, day)));
    }
  }
  return specs;
}

struct DayWorkload {
  std::vector<core::RunSpec> specs;
  core::Engine engine;

  explicit DayWorkload(std::uint64_t seed) : specs(day_specs(seed)) {
    core::find_scheme(kScheme);
    core::find_scheme("no-sleep");
    for (const std::string& name : kDayPresets) core::find_scenario_preset(name);
  }

  Result measure(double seconds) const {
    Result result;
    // The composed reports double as the warm-up pass.
    std::vector<std::string> expected;
    for (const core::RunSpec& spec : specs) {
      expected.push_back(compose_day(spec, nullptr, nullptr).to_json());
    }
    std::vector<std::vector<double>> ms(specs.size());
    double rss_mib = 0.0;
    const std::uint64_t start = now_ns();
    do {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::uint64_t t0 = now_ns();
        const core::RunReport report = engine.run(specs[i]);
        ms[i].push_back(ms_since(t0));
        result.check(report.to_json() == expected[i], 1,
                     "day: Engine::run report differs from the composed day for " +
                         specs[i].preset);
      }
      if (ms[0].size() == 1) rss_mib = peak_rss_mib();
    } while (ms_since(start) < seconds * 1e3);
    result.add("day_ms", perfbench::mean_of_medians(ms), "ms");
    result.note("peak_rss_mib", rss_mib, "MiB");
    result.note("day.iterations", static_cast<double>(ms[0].size()), "count");
    return result;
  }
};

// ---------------------------------------------------------------------------
// fleet: run_country at nproc threads over a pinned fleet shape.
// ---------------------------------------------------------------------------

int fleet_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// The fleet workload's country: the shape default_country(0.01, 0.1) draws
/// at its default seed — 7 city shards, 35 neighbourhoods, one metro city on
/// the critical path — with every city pinned to that draw's neighbourhood
/// count and to the preset most of its neighbourhoods drew, jitter off. Left
/// to the seed, the shape itself is redrawn and the fleet wall moved by up to
/// 40 % between seeds, which would swamp any scheduling change; pinned, the
/// seed reaches each neighbourhood's topology, traffic and scheme randomness.
country::CountryConfig pinned_fleet(std::uint64_t seed, int threads) {
  const country::CountryConfig shape = country::default_country(0.01, 0.1);
  country::CountryConfig fleet;
  fleet.name = "perfbench-fleet";
  fleet.seed = seed;
  fleet.scheme = kScheme;
  fleet.threads = threads;
  for (std::uint32_t r = 0; r < shape.regions.size(); ++r) {
    for (int c = 0; c < shape.regions[r].cities; ++c) {
      const country::CitySample drawn =
          country::sample_city(shape, r, static_cast<std::uint32_t>(c));
      const std::vector<core::ScenarioPreset> presets = city::resolve_mix(drawn.city);
      std::vector<int> count(drawn.city.mix.size(), 0);
      for (int n = 0; n < drawn.city.neighbourhoods; ++n) {
        ++count[city::sample_neighbourhood(drawn.city, presets, static_cast<std::size_t>(n))
                    .mix_index];
      }
      const auto majority =
          static_cast<std::size_t>(std::max_element(count.begin(), count.end()) - count.begin());
      country::CityTemplate city;
      city.name = shape.regions[r].portfolio[drawn.template_index].name;
      city.mix = {{drawn.city.mix[majority].preset, 1.0, {}}};
      city.neighbourhoods_min = city.neighbourhoods_max = drawn.city.neighbourhoods;
      country::RegionConfig region;
      region.name = shape.regions[r].name + "-" + std::to_string(c);
      region.cities = 1;
      region.portfolio = {city};
      fleet.regions.push_back(region);
    }
  }
  country::validate(fleet);
  return fleet;
}

/// Every country aggregate, as exact hex floats: equal strings mean
/// bit-identical folds.
std::string fingerprint(const country::CountryMetrics& m) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof buf, "%zu %zu %ld %ld %a %a %a %a %a %ld %zu %a %a|", m.cities(),
                m.neighbourhoods(), m.total_gateways(), m.total_clients(),
                m.baseline_watts(), m.scheme_watts(), m.savings_fraction(),
                m.isp_share_of_savings(), m.peak_online_gateways(), m.wake_events(),
                m.neighbourhood_savings().count(), m.neighbourhood_savings().mean(),
                m.savings_ci95_halfwidth());
  out += buf;
  for (const country::RegionMetrics& r : m.per_region()) {
    std::snprintf(buf, sizeof buf, "%s %zu %zu %a %a %a %ld|", r.name.c_str(), r.cities,
                  r.neighbourhoods, r.baseline_watts, r.scheme_watts, r.peak_online_gateways,
                  r.wake_events);
    out += buf;
  }
  return out;
}

bool clean_run(const country::CountryResult& result) {
  return result.complete && result.coverage() == 1.0 && result.quarantined.empty() &&
         result.child_failures.empty();
}

struct FleetWorkload {
  int threads;
  country::CountryConfig config;

  explicit FleetWorkload(std::uint64_t seed)
      : threads(fleet_threads()), config(pinned_fleet(seed, threads)) {
    core::find_scheme(config.scheme);
  }

  std::size_t shards() const { return country::total_city_shards(config); }

  Result measure(double seconds) const {
    Result result;
    std::vector<double> per_day_ms;
    double rss_mib = 0.0;
    std::string expected;
    const std::uint64_t start = now_ns();
    do {
      const std::uint64_t t0 = now_ns();
      const country::CountryResult run = country::run_country(config);
      const double wall_ms = ms_since(t0);
      const std::string got = fingerprint(run.metrics);
      if (expected.empty()) expected = got;
      result.check(clean_run(run) && got == expected, shards(),
                   "fleet: incomplete, degraded, or aggregates differ across iterations");
      per_day_ms.push_back(wall_ms / static_cast<double>(run.metrics.neighbourhoods()));
      if (per_day_ms.size() == 1) rss_mib = peak_rss_mib();
    } while (ms_since(start) < seconds * 1e3);
    const double day_ms = perfbench::median(per_day_ms);
    result.add("day_ms", day_ms, "ms");
    result.note("peak_rss_mib", rss_mib, "MiB");
    result.note("fleet_nbhd_days_per_s", 1e3 / day_ms, "1/s");
    result.note("fleet.threads", threads, "count");
    result.note("fleet.iterations", static_cast<double>(per_day_ms.size()), "count");
    return result;
  }
};

// ---------------------------------------------------------------------------
// live: LiveController over a GeneratorSource, closed and open loop.
// ---------------------------------------------------------------------------

/// Wraps the controller's EventSource: times every poll (the live.poll
/// layer) and, with a positive `speedup` (open loop), the lag of each record
/// from its due wall time to the moment poll hands it over. The clock starts
/// at the first poll, which the controller makes right after starting its
/// own pacing clock.
class TimedSource : public live::EventSource {
 public:
  TimedSource(std::unique_ptr<live::EventSource> inner, double speedup, SpanLog* log,
              int parent)
      : inner_(std::move(inner)), speedup_(speedup), log_(log), parent_(parent) {}

  std::size_t poll(double horizon, std::size_t max, trace::FlowTrace& out) override {
    ScopedSpan span(log_, "live.poll", parent_);
    const std::uint64_t t0 = now_ns();
    if (start_ns_ == 0) start_ns_ = t0;
    const std::size_t before = out.size();
    const std::size_t got = inner_->poll(horizon, max, out);
    const std::uint64_t t1 = now_ns();
    poll_ns_ += t1 - t0;
    ++polls_;
    if (speedup_ > 0.0) {
      for (std::size_t i = before; i < before + got; ++i) {
        lags_ms_.push_back(perfbench::lag_ms(start_ns_, out[i].start_time, speedup_, t1));
      }
    }
    return got;
  }
  bool exhausted() const override { return inner_->exhausted(); }
  std::string describe() const override { return "timed " + inner_->describe(); }

  double poll_ms() const { return static_cast<double>(poll_ns_) / 1e6; }
  std::uint64_t polls() const { return polls_; }
  const std::vector<double>& lags_ms() const { return lags_ms_; }

 private:
  std::unique_ptr<live::EventSource> inner_;
  double speedup_;
  SpanLog* log_;
  int parent_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t poll_ns_ = 0;
  std::uint64_t polls_ = 0;
  std::vector<double> lags_ms_;
};

struct LivePass {
  live::LiveResult result;
  double wall_ms = 0.0;  ///< controller.run(), closed loop
  std::size_t generated = 0;
  double poll_ms = 0.0;
  std::uint64_t polls = 0;
  std::vector<double> lags_ms;
};

struct LiveWorkload {
  std::uint64_t seed;
  const core::ScenarioPreset& preset;

  explicit LiveWorkload(std::uint64_t s)
      : seed(s), preset(core::find_scenario_preset(kLivePreset)) {
    core::find_scheme(kScheme);
  }

  std::uint64_t day_seed(int day) const { return ::day_seed(seed, day); }

  /// The source generates its day when constructed — start-up cost, not
  /// part of the controller's run.
  std::unique_ptr<live::GeneratorSource> make_source(int day) const {
    return std::make_unique<live::GeneratorSource>(preset.scenario.traffic, day_seed(day), 1);
  }

  live::LiveController::Options options(int day, live::PaceMode pace, double speedup) const {
    live::LiveController::Options o;
    o.scenario = preset.scenario;
    o.preset_name = preset.name;
    o.scheme = kScheme;
    o.seed = day_seed(day);
    o.pace = pace;
    o.speedup = speedup;
    return o;
  }

  /// One pass over `day`: closed loop (virtual pacing) when `open_loop` is
  /// false, else wall pacing at kOfferedRate records per second.
  LivePass pass(int day, bool open_loop, SpanLog* log) const {
    ScopedSpan span(log, open_loop ? "live.open_loop" : "live.closed_loop", -1);
    auto source = make_source(day);
    LivePass out;
    const double records_per_virtual_sec = source->mean_records_per_virtual_sec();
    out.generated = static_cast<std::size_t>(
        std::llround(records_per_virtual_sec * preset.scenario.traffic.duration));
    const double speedup = open_loop ? kOfferedRate / records_per_virtual_sec : 1.0;
    auto timed = std::make_unique<TimedSource>(std::move(source), open_loop ? speedup : 0.0,
                                               log, span.index());
    TimedSource* probe = timed.get();
    live::LiveController controller(
        options(day, open_loop ? live::PaceMode::kWall : live::PaceMode::kVirtual, speedup),
        std::move(timed));
    const std::uint64_t t0 = now_ns();
    out.result = controller.run();
    out.wall_ms = ms_since(t0);
    out.poll_ms = probe->poll_ms();
    out.polls = probe->polls();
    out.lags_ms = probe->lags_ms();
    return out;
  }

  static bool counts_ok(const LivePass& p) {
    const live::LiveStats& s = p.result.stats;
    return s.dropped == 0 && s.decided == s.ingested && s.ingested == p.generated;
  }

  core::RunSpec offline_spec(int day) const { return day_spec(preset.name, day_seed(day)); }

  std::string offline_report(int day) const {
    return core::Engine().run(offline_spec(day)).to_json();
  }

  void check_closed(const LivePass& p, const std::string& expected, Result& result) const {
    result.check(p.result.report.to_json() == expected && counts_ok(p), p.generated,
                 "live: virtual-pace report differs from Engine::run, or records lost");
  }

  void check_open(const LivePass& p, Result& result) const {
    result.check(counts_ok(p), p.generated,
                 "live: open loop decided != ingested != generated, or dropped records");
  }

  Result measure(double seconds) const {
    Result result;
    std::vector<std::string> expected;  // also the warm-up
    for (int day = 0; day < kLiveDays; ++day) expected.push_back(offline_report(day));
    std::vector<std::vector<double>> ms(kLiveDays);
    std::vector<std::uint64_t> decided(kLiveDays);
    double rss_mib = 0.0;
    const std::uint64_t start = now_ns();
    do {
      for (int day = 0; day < kLiveDays; ++day) {
        const LivePass closed = pass(day, false, nullptr);
        check_closed(closed, expected[static_cast<std::size_t>(day)], result);
        ms[static_cast<std::size_t>(day)].push_back(closed.wall_ms);
        decided[static_cast<std::size_t>(day)] = closed.result.stats.decided;
      }
      if (ms[0].size() == 1) rss_mib = peak_rss_mib();
    } while (ms_since(start) < seconds * 1e3);
    const LivePass open = pass(0, true, nullptr);
    check_open(open, result);
    const double day_ms = perfbench::mean_of_medians(ms);
    double records = 0.0;
    for (std::uint64_t n : decided) records += static_cast<double>(n);
    result.add("day_ms", day_ms, "ms");
    result.note("peak_rss_mib", rss_mib, "MiB");
    result.note("live_evps", records / kLiveDays / (day_ms / 1e3), "records/s");
    result.note("live_lag_p50_ms", perfbench::quantile(open.lags_ms, 0.50), "ms");
    result.note("live_lag_p90_ms", perfbench::quantile(open.lags_ms, 0.90), "ms");
    result.note("live.iterations", static_cast<double>(ms[0].size()), "count");
    return result;
  }
};

// ---------------------------------------------------------------------------
// The layer sweep (--trace 1): every layer, whatever the workload.
// ---------------------------------------------------------------------------

void sweep_day(std::uint64_t seed, SpanLog& log, Result& result) {
  const core::Engine engine;
  DayLayers total;
  double plain_ms = 0.0;
  for (const core::RunSpec& spec : day_specs(seed)) {
    const std::uint64_t t0 = now_ns();
    const std::string plain = engine.run(spec).to_json();
    plain_ms += ms_since(t0);
    const std::string traced = compose_day(spec, &log, &total).to_json();
    result.check(traced == plain, 1,
                 "day: composed report differs from Engine::run for " + spec.preset);
  }
  const auto days = static_cast<double>(total.days);
  for (const char* layer : {"topology.build", "trace.generate", "core.baseline_day",
                            "core.scheme_day", "core.summarize", "core.fold"}) {
    result.add(std::string(layer) + "_ms", total.layer_ms[layer] / days, "ms");
  }
  result.add("core.unattributed_frac", total.unattributed_ms / total.wall_ms, "ratio");
  result.add("trace.flows", static_cast<double>(total.flows) / days, "count");
  result.add("sim.events_baseline", static_cast<double>(total.events_baseline) / days, "count");
  result.add("sim.events_scheme", static_cast<double>(total.events_scheme) / days, "count");
  result.add("flow.waterfills", static_cast<double>(total.waterfills) / days, "count");
  result.add("trace.overhead_ratio", total.wall_ms / plain_ms, "ratio");
}

void sweep_fleet(std::uint64_t seed, SpanLog& log, Result& result) {
  const FleetWorkload fleet(seed);
  const country::CountryConfig& config = fleet.config;

  // Serial pass: every shard's cost on its own.
  std::vector<std::string> region_names;
  for (const country::RegionConfig& region : config.regions) region_names.push_back(region.name);
  country::CountryMetrics serial_fold(region_names);
  std::vector<double> city_ms;
  {
    ScopedSpan pass(&log, "country.serial_pass", -1);
    for (std::uint32_t r = 0; r < config.regions.size(); ++r) {
      for (int c = 0; c < config.regions[r].cities; ++c) {
        const auto city = static_cast<std::uint32_t>(c);
        ScopedSpan shard(&log, "country.city", pass.index());
        {
          ScopedSpan sample(&log, "country.sample_city", shard.index());
          country::sample_city(config, r, city);
        }
        ScopedSpan simulate(&log, "country.simulate_city", shard.index());
        const std::uint64_t t0 = now_ns();
        serial_fold.add(country::simulate_city(config, {}, r, city));
        city_ms.push_back(ms_since(t0));
      }
    }
  }

  const std::uint64_t retries0 = obs::counter("exec.shard_retries").value();
  country::CountryResult run;
  double wall_ms = 0.0;
  {
    ScopedSpan span(&log, "country.run_country", -1);
    const std::uint64_t t0 = now_ns();
    run = country::run_country(config);
    wall_ms = ms_since(t0);
  }
  result.check(clean_run(run) && fingerprint(run.metrics) == fingerprint(serial_fold),
               fleet.shards() * 2,
               "fleet: parallel fold differs from the serial pass, or run degraded");

  double city_sum = 0.0;
  for (double ms : city_ms) city_sum += ms;
  const double city_max = *std::max_element(city_ms.begin(), city_ms.end());
  result.add("country.city_ms_p50", perfbench::median(city_ms), "ms");
  result.add("country.city_ms_max", city_max, "ms");
  result.add("country.critical_path_frac", perfbench::critical_path_frac(city_max, wall_ms),
             "ratio");
  result.add("exec.busy_frac", perfbench::busy_frac(city_sum, fleet.threads, wall_ms), "ratio");
  result.add("exec.shard_retries",
             static_cast<double>(obs::counter("exec.shard_retries").value() - retries0), "count");
  result.add("country.nbhd_days_per_s",
             static_cast<double>(run.metrics.neighbourhoods()) / (wall_ms / 1e3), "1/s");
}

void sweep_live(std::uint64_t seed, SpanLog& log, Result& result) {
  const LiveWorkload live(seed);
  // Day 0 composed with spans: its scheme day is what live.overhead_ratio
  // divides by.
  DayLayers day0;
  const std::string composed = compose_day(live.offline_spec(0), &log, &day0).to_json();

  double closed_ms = 0.0;
  double day0_ms = 0.0;
  double poll_ms = 0.0;
  std::uint64_t polls = 0;
  std::uint64_t decided = 0;
  for (int day = 0; day < kLiveDays; ++day) {
    const std::string expected = live.offline_report(day);
    if (day == 0) result.check(composed == expected, 1, "live: composed day 0 differs");
    const LivePass closed = live.pass(day, false, &log);
    live.check_closed(closed, expected, result);
    closed_ms += closed.wall_ms;
    if (day == 0) day0_ms = closed.wall_ms;
    poll_ms += closed.poll_ms;
    polls += closed.polls;
    decided += closed.result.stats.decided;
  }
  const LivePass open = live.pass(0, true, &log);
  live.check_open(open, result);

  result.add("live.poll_ms", poll_ms / kLiveDays, "ms");
  result.add("live.polls", static_cast<double>(polls) / kLiveDays, "count");
  result.add("live.evps", static_cast<double>(decided) / (closed_ms / 1e3), "records/s");
  result.add("live.lag_p50_ms", perfbench::quantile(open.lags_ms, 0.50), "ms");
  result.add("live.lag_p90_ms", perfbench::quantile(open.lags_ms, 0.90), "ms");
  result.add("live.lag_p99_ms", perfbench::quantile(open.lags_ms, 0.99), "ms");
  result.add("live.peak_queue_depth", static_cast<double>(open.result.stats.peak_queue_depth),
             "count");
  result.add("live.tick_overruns", static_cast<double>(open.result.stats.tick_overruns), "count");
  result.add("live.overhead_ratio", day0_ms / day0.layer_ms["core.scheme_day"], "ratio");
}

Result sweep(std::uint64_t seed, SpanLog& log) {
  Result result;
  sweep_day(seed, log, result);
  // Live before the fleet: after run_country frees its threads' memory, the
  // next closed-loop passes run cold.
  sweep_live(seed, log, result);
  sweep_fleet(seed, log, result);
  result.add("process.peak_rss_mib", peak_rss_mib(), "MiB");
  return result;
}

// ---------------------------------------------------------------------------
// Command line and output
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  bool setup_only = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload day|fleet|live --seed N "
               "--seconds S --trace 0|1 [--setup-only] [--spans-out PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *value == '-' || *end != '\0') usage("--seed needs an integer >= 0");
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("--seconds needs a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) usage("--trace is 0 or 1");
      a.trace = value[0] - '0';
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (a.workload != "day" && a.workload != "fleet" && a.workload != "live") {
    usage("--workload is day, fleet or live");
  }
  if (!have_seed) usage("--seed is required");
  if (!a.setup_only && a.seconds <= 0.0) usage("--seconds is required");
  return a;
}

void print(const Result& r, const Args& args) {
  for (const Metric& m : r.metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : r.notes) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-28s %16.6f ratio\n", "failed_frac", perfbench::failed_frac(r.failed, r.attempted));
#ifdef INSOMNIA_OBS_DISABLED
  const bool obs_compiled = false;
#else
  const bool obs_compiled = true;
#endif
  std::printf(
      "build {\"build_type\": \"%s\", \"compiler\": \"GCC %s\", \"obs_compiled\": %s, "
      "\"obs_enabled\": %s, \"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d}\n",
      PERFBENCH_BUILD_TYPE, __VERSION__, obs_compiled ? "true" : "false",
      obs::enabled() ? "true" : "false", args.workload.c_str(), args.seed, args.trace);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              r.failed == 0 ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.setup_only) {
      if (args.workload == "day") {
        const DayWorkload day(args.seed);
      } else if (args.workload == "fleet") {
        const FleetWorkload fleet(args.seed);
      } else {
        const LiveWorkload live(args.seed);
        live::LiveController controller(live.options(0, live::PaceMode::kVirtual, 1.0),
                                        live.make_source(0));
      }
      return 0;
    }
    Result result;
    if (args.trace == 1) {
      SpanLog log;
      result = sweep(args.seed, log);
      if (!args.spans_out.empty()) log.write_chrome_trace(args.spans_out);
    } else {
      if (args.workload == "day") {
        result = DayWorkload(args.seed).measure(args.seconds);
      } else if (args.workload == "fleet") {
        result = FleetWorkload(args.seed).measure(args.seconds);
      } else {
        result = LiveWorkload(args.seed).measure(args.seconds);
      }
    }
    print(result, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
