#include "city/city_runner.h"

#include <string>
#include <utility>

#include "city/neighbourhood_sampler.h"
#include "core/day_summary.h"
#include "core/scheme_registry.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/random.h"
#include "topology/access_topology.h"

namespace insomnia::city {

namespace {

// Feeds the fleet heartbeat and the telemetry block: neighbourhoods done,
// live baseline/scheme watt aggregates, and per-shard wall time. All values
// except shard wall time are deterministic functions of the simulation.
void record_neighbourhood(const NeighbourhoodOutcome& outcome, double shard_ms) {
#ifndef INSOMNIA_OBS_DISABLED
  static obs::Counter& done = obs::counter("city.neighbourhoods_done");
  static obs::Gauge& baseline_watts = obs::gauge("fleet.baseline_watts");
  static obs::Gauge& scheme_watts = obs::gauge("fleet.scheme_watts");
  static obs::Histogram& shard_hist = obs::histogram("fleet.shard_ms", 0.01, 1e7, 60);
  done.add(1);
  if (outcome.duration > 0.0) {
    baseline_watts.add((outcome.baseline_user_energy + outcome.baseline_isp_energy) /
                       outcome.duration);
    scheme_watts.add((outcome.scheme_user_energy + outcome.scheme_isp_energy) /
                     outcome.duration);
  }
  shard_hist.record(shard_ms);
#else
  (void)outcome;
  (void)shard_ms;
#endif
}

}  // namespace

NeighbourhoodOutcome simulate_neighbourhood(const CityConfig& config,
                                            const std::vector<core::ScenarioPreset>& presets,
                                            std::size_t index) {
  obs::ScopeTimer shard_timer("city.neighbourhood");
  const NeighbourhoodSample sample = sample_neighbourhood(config, presets, index);
  const core::ScenarioConfig& scenario = sample.scenario;

  // Neighbourhood `index` is the paired day of stream `index` under the city
  // seed (core::kNeighbourhoodDayKeys; the sampler owns salt 11): the
  // traffic-free baseline and the scheme, same topology.
  const core::DayKeys& keys = core::kNeighbourhoodDayKeys;
  sim::Random topo_rng(sim::Random::substream_seed(config.seed, index, keys.topology));
  const topo::AccessTopology topology =
      topo::make_overlap_topology(scenario.client_count, scenario.degrees, topo_rng);
  const core::PairedDay day =
      core::simulate_paired_day(scenario, topology, config.seed, index, keys,
                                {&core::find_scheme(config.scheme)},
                                core::Baseline::kTrafficFree);
  const core::RunMetrics& baseline = day.baseline;
  const core::RunMetrics& scheme = day.schemes[0];

  NeighbourhoodOutcome outcome;
  outcome.mix_index = sample.mix_index;
  outcome.gateways = scenario.gateway_count;
  outcome.clients = scenario.client_count;
  outcome.duration = baseline.duration;
  outcome.baseline_user_energy = baseline.user_energy();
  outcome.baseline_isp_energy = baseline.isp_energy();
  outcome.scheme_user_energy = scheme.user_energy();
  outcome.scheme_isp_energy = scheme.isp_energy();
  outcome.peak_online_gateways =
      scheme.online_gateways.mean(config.peak_start, config.peak_end);
  outcome.wake_events = scheme.gateway_wake_events;
  record_neighbourhood(outcome, shard_timer.stop_ms());
  return outcome;
}

CityMetrics fold_city(const CityConfig& config,
                      const std::vector<NeighbourhoodOutcome>& outcomes) {
  OBS_SCOPE("city.fold");
  std::vector<std::string> names;
  names.reserve(config.mix.size());
  for (const CityMixComponent& component : config.mix) names.push_back(component.preset);
  CityMetrics metrics(std::move(names));
  for (const NeighbourhoodOutcome& outcome : outcomes) metrics.add(outcome);
  return metrics;
}

}  // namespace insomnia::city
