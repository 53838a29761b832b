#include "core/engine.h"

#include <algorithm>
#include <utility>

#include "core/day_summary.h"
#include "core/metrics.h"
#include "core/scenario_presets.h"
#include "exec/sweep_runner.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "topology/access_topology.h"
#include "trace/trace_io.h"
#include "util/error.h"
#include "util/json_writer.h"

namespace insomnia::core {

Engine::Engine() : registry_(&scheme_registry()) {}

Engine::Engine(const SchemeRegistry& registry) : registry_(&registry) {}

std::vector<RunReport> Engine::run(const RunSpec& spec,
                                   const std::vector<std::string>& names) const {
  util::require(spec.runs >= 1, "engine run needs at least one repeat");
  util::require(spec.bins >= 1, "engine run needs at least one bin");
  util::require(spec.peak_start < spec.peak_end, "peak window must not be empty");
  util::require(spec.preset.empty() || !spec.scenario.has_value(),
                "RunSpec sets both a preset name and an inline scenario");
  util::require(!names.empty(), "engine run needs at least one scheme");

  // Resolve every scheme and the fairness pairing before any day runs, so a
  // bad list fails fast. Fairness (Fig. 9b) pairs a scheme with the same
  // day's SoI, which must be listed before it.
  const bool lists_soi = std::find(names.begin(), names.end(), "soi") != names.end();
  std::vector<const SchemeSpec*> schemes;
  std::optional<std::size_t> soi;
  for (std::size_t s = 0; s < names.size(); ++s) {
    schemes.push_back(&registry_->find(names[s]));
    if (schemes[s]->name == "soi") soi = s;
    util::require_state(soi.has_value() || !lists_soi || !schemes[s]->fairness_vs_soi,
                        "list \"soi\" before fairness-paired schemes");
  }

  // The spec echo every scheme's report starts from.
  RunReport echo;
  ScenarioConfig scenario;
  echo.preset = "(inline)";
  if (spec.scenario.has_value()) {
    scenario = *spec.scenario;
  } else {
    const ScenarioPreset& preset =
        find_scenario_preset(spec.preset.empty() ? "paper-default" : spec.preset);
    scenario = preset.scenario;
    echo.preset = preset.name;
  }
  echo.trace_file = spec.trace_file;
  echo.seed = spec.seed;
  echo.runs = spec.runs;
  echo.bins = spec.bins;
  echo.peak_start = spec.peak_start;
  echo.peak_end = spec.peak_end;
  echo.clients = scenario.client_count;
  echo.gateways = scenario.gateway_count;

  // One fixed topology; run r is the paired day of stream r (kRunDayKeys).
  const topo::AccessTopology topology = run_topology(scenario, spec.seed);

  trace::FlowTrace recorded;
  if (!spec.trace_file.empty()) recorded = trace::load_flow_trace(spec.trace_file);

  // Only FCTs need the no-sleep day simulated over the trace.
  const Baseline baseline = spec.fct ? Baseline::kSimulated : Baseline::kTrafficFree;
  exec::SweepRunner runner(spec.threads);
  std::vector<std::vector<PairedDaySummary>> runs =
      runner.run(static_cast<std::size_t>(spec.runs), [&](std::size_t run) {
        OBS_SCOPE("engine.day");
        const PairedDay day = simulate_paired_day(
            scenario, topology, spec.seed, run, kRunDayKeys, schemes, baseline,
            spec.trace_file.empty() ? nullptr : &recorded);
        std::vector<PairedDaySummary> out;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
          const RunMetrics& metrics = day.schemes[s];
          out.push_back(summarize_paired_day(day.baseline, metrics, day.flows, spec.bins,
                                             spec.peak_start, spec.peak_end));
          if (spec.fct && schemes[s]->name != "no-sleep") {
            out.back().fct_increase = completion_time_increase(metrics, day.baseline);
          }
          if (soi.has_value() && schemes[s]->fairness_vs_soi) {
            out.back().online_time_variation =
                online_time_variation(metrics, day.schemes[*soi]);
          }
        }
        return out;
      });

  // Fold each scheme's days in run order — independent of the thread count.
  std::vector<RunReport> reports(schemes.size(), echo);
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    reports[s].scheme = schemes[s]->name;
    reports[s].scheme_display = schemes[s]->display;
    std::vector<PairedDaySummary> days;
    for (std::vector<PairedDaySummary>& run : runs) days.push_back(std::move(run[s]));
    fold_paired_days(days, reports[s]);
  }
  return reports;
}

RunReport Engine::run(const RunSpec& spec) const {
  return std::move(run(spec, {spec.scheme}).front());
}

const RunReport& find_report(const std::vector<RunReport>& reports,
                             const std::string& scheme) {
  for (const RunReport& report : reports) {
    if (report.scheme == scheme) return report;
  }
  throw util::InvalidArgument("scheme not part of this run: " + scheme);
}

std::string RunReport::to_json(bool include_telemetry) const {
  util::JsonWriter json;
  json.begin_object();
  json.field("report", "engine-run");
  json.field("scheme", scheme);
  json.field("scheme_display", scheme_display);
  json.field("preset", preset);
  json.field("trace_file", trace_file);
  json.field("seed", seed);
  json.field("runs", runs);
  json.field("bins", bins);
  json.field("peak_start", peak_start);
  json.field("peak_end", peak_end);
  json.field("clients", clients);
  json.field("gateways", gateways);
  json.key("aggregate").begin_object();
  json.field("day_savings", day_savings);
  json.field("day_isp_share", day_isp_share);
  json.field("peak_online_gateways", peak_online_gateways);
  json.field("mean_wake_events", mean_wake_events);
  json.field("executed_events", executed_events);
  json.end_object();
  json.number_array("savings_series", savings_series);
  json.number_array("online_gateways_series", online_gateways_series);
  json.key("days").begin_array();
  for (const EngineDay& day : days) {
    json.begin_object();
    json.field("baseline_user_energy", day.baseline_user_energy);
    json.field("baseline_isp_energy", day.baseline_isp_energy);
    json.field("user_energy", day.user_energy);
    json.field("isp_energy", day.isp_energy);
    json.field("savings", day.savings);
    json.field("isp_share", day.isp_share);
    json.field("peak_online_gateways", day.peak_online_gateways);
    json.field("peak_online_cards", day.peak_online_cards);
    json.field("wake_events", day.wake_events);
    json.field("bh2_moves", day.bh2_moves);
    json.field("bh2_home_returns", day.bh2_home_returns);
    json.field("executed_events", day.executed_events);
    json.field("flows", day.flows);
    json.end_object();
  }
  json.end_array();
  if (include_telemetry) obs::write_telemetry(json);
  json.end_object();
  return json.str();
}

}  // namespace insomnia::core
