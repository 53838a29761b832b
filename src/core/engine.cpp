#include "core/engine.h"

#include "core/day_summary.h"
#include "core/scenario_presets.h"
#include "exec/sweep_runner.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "sim/random.h"
#include "topology/access_topology.h"
#include "trace/trace_io.h"
#include "util/error.h"
#include "util/json_writer.h"

namespace insomnia::core {

Engine::Engine() : registry_(&scheme_registry()) {}

Engine::Engine(const SchemeRegistry& registry) : registry_(&registry) {}

RunReport Engine::run(const RunSpec& spec) const {
  util::require(spec.runs >= 1, "engine run needs at least one repeat");
  util::require(spec.bins >= 1, "engine run needs at least one bin");
  util::require(spec.peak_start < spec.peak_end, "peak window must not be empty");
  util::require(spec.preset.empty() || !spec.scenario.has_value(),
                "RunSpec sets both a preset name and an inline scenario");

  const SchemeSpec& scheme = registry_->find(spec.scheme);

  ScenarioConfig scenario;
  std::string preset_name = "(inline)";
  if (spec.scenario.has_value()) {
    scenario = *spec.scenario;
  } else {
    const ScenarioPreset& preset =
        find_scenario_preset(spec.preset.empty() ? "paper-default" : spec.preset);
    scenario = preset.scenario;
    preset_name = preset.name;
  }

  RunReport report;
  report.scheme = scheme.name;
  report.scheme_display = scheme.display;
  report.preset = preset_name;
  report.trace_file = spec.trace_file;
  report.seed = spec.seed;
  report.runs = spec.runs;
  report.bins = spec.bins;
  report.peak_start = spec.peak_start;
  report.peak_end = spec.peak_end;
  report.clients = scenario.client_count;
  report.gateways = scenario.gateway_count;

  // One fixed topology; run r is the paired day of stream r (kRunDayKeys,
  // shared with core/experiments).
  sim::Random topo_rng(sim::Random::substream_seed(spec.seed, 0, kRunDayKeys.topology));
  const topo::AccessTopology topology =
      topo::make_overlap_topology(scenario.client_count, scenario.degrees, topo_rng);

  trace::FlowTrace recorded;
  if (!spec.trace_file.empty()) recorded = trace::load_flow_trace(spec.trace_file);

  exec::SweepRunner runner(spec.threads);
  const std::vector<PairedDaySummary> outputs =
      runner.run(static_cast<std::size_t>(spec.runs), [&](std::size_t run) {
        OBS_SCOPE("engine.day");
        const PairedDay day = simulate_paired_day(
            scenario, topology, spec.seed, run, kRunDayKeys, {&scheme},
            Baseline::kTrafficFree, spec.trace_file.empty() ? nullptr : &recorded);
        return summarize_paired_day(day.baseline, day.schemes[0], day.flows, spec.bins,
                                    spec.peak_start, spec.peak_end);
      });

  // Fold in run order — independent of the thread count.
  fold_paired_days(outputs, report);
  return report;
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
