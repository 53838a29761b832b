// City-scale fleet study (§5.4 grounded in simulation): a whole ISP city of
// heterogeneous neighbourhoods — a weighted mix of scenario presets with
// per-neighbourhood jitter — simulated in parallel. Prints the per-preset
// breakdown and the fleet aggregates. The world TWh/yr figure comes from the
// country fleet (bench/country01_fleet.cpp).
//
// Knobs: --size N (neighbourhoods), --mix name=w[,name=w...], --seed S,
// --scheme NAME (any registered scheme), --json PATH, --threads N,
// --list-presets, --list-schemes; INSOMNIA_THREADS applies as everywhere.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "city/city_runner.h"
#include "city/neighbourhood_sampler.h"
#include "obs/heartbeat.h"
#include "util/table.h"

namespace {

using namespace insomnia;

/// Parses "name=w[,name=w...]" into mix components carrying `jitter`.
std::vector<city::CityMixComponent> parse_mix(const std::string& spec,
                                              const city::NeighbourhoodJitter& jitter) {
  std::vector<city::CityMixComponent> mix;
  for (const std::string& entry : util::split(spec, ',')) {
    const auto eq = entry.find('=');
    util::require(eq != std::string::npos && eq > 0 && eq + 1 < entry.size(),
                  "mix entry \"" + entry + "\" must look like preset=weight");
    city::CityMixComponent component;
    component.preset = entry.substr(0, eq);
    const auto weight = util::parse_double(entry.substr(eq + 1));
    util::require(weight.has_value(), "mix weight in \"" + entry + "\" is not a number");
    component.weight = *weight;
    component.jitter = jitter;
    mix.push_back(component);
  }
  return mix;
}

city::CityConfig config_from_args(int argc, char** argv) {
  city::CityConfig config = city::default_city(/*neighbourhoods=*/24);
  const city::NeighbourhoodJitter jitter = config.mix.front().jitter;
  for (int i = 1; i < argc; ++i) {
    if (bench::handle_common_flag(argc, argv, i)) continue;
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) throw util::InvalidArgument(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (arg == "--size") {
      const auto parsed = util::parse_positive_int(value("--size"));
      util::require(parsed.has_value(), "--size must be a positive integer");
      config.neighbourhoods = *parsed;
    } else if (arg == "--seed") {
      const auto parsed = util::parse_uint64(value("--seed"));
      util::require(parsed.has_value(), "--seed must be an unsigned 64-bit integer");
      config.seed = *parsed;
    } else if (arg == "--mix") {
      config.mix = parse_mix(value("--mix"), jitter);
    } else {
      throw util::InvalidArgument(
          "unknown argument \"" + arg + "\"; usage: " + argv[0] +
          " [--size N] [--mix name=w,...] [--seed S] [--scheme NAME] [--json PATH]"
          " [--threads N] [--list-presets] [--list-schemes]");
    }
  }
  config.scheme = bench::scheme_or(config.scheme).name;
  city::resolve_mix(config);  // structural + registry validation, fails fast
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace insomnia;
  bench::banner("City fleet (§5.4)", "heterogeneous neighbourhood fleet behind one ISP");

  city::CityConfig config;
  try {
    config = config_from_args(argc, argv);
  } catch (const util::InvalidArgument& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
  bench::threads_from_env_or_exit();

  std::cout << config.neighbourhoods << " neighbourhoods, seed " << config.seed
            << ", scheme " << core::find_scheme(config.scheme).display << ", mix:";
  for (const city::CityMixComponent& component : config.mix) {
    std::cout << " " << component.preset << "=" << bench::num(component.weight, 2);
  }
  std::cout << "\n\n";

  const city::CityResult result = [&] {
    obs::Heartbeat::Options beat;
    beat.label = "city";
    beat.interval_sec = obs::Heartbeat::interval_from_env(2.0);
    beat.total_shards = static_cast<std::uint64_t>(config.neighbourhoods);
    beat.done_counter = "city.neighbourhoods_done";
    const obs::Heartbeat heartbeat(beat);  // final summary prints on scope exit
    return city::run_city(config);
  }();
  const city::CityMetrics& metrics = result.metrics;

  util::TextTable table;
  table.set_header({"preset", "nbhds", "gateways", "clients", "baseline W", "scheme W",
                    "savings"});
  for (const city::PresetAggregate& slice : metrics.per_preset()) {
    table.add_row({slice.preset, std::to_string(slice.neighbourhoods),
                   std::to_string(slice.gateways), std::to_string(slice.clients),
                   bench::num(slice.baseline_watts, 0), bench::num(slice.scheme_watts, 0),
                   bench::pct(slice.savings_fraction())});
  }
  table.add_row({"city", std::to_string(metrics.neighbourhoods()),
                 std::to_string(metrics.total_gateways()),
                 std::to_string(metrics.total_clients()),
                 bench::num(metrics.baseline_watts(), 0),
                 bench::num(metrics.scheme_watts(), 0),
                 bench::pct(metrics.savings_fraction())});
  table.print(std::cout);

  std::cout << "\n";
  bench::compare("fleet savings (energy-weighted)", "66% (one fixed neighbourhood)",
                 bench::pct(metrics.savings_fraction()) + " ± " +
                     bench::pct(metrics.savings_ci95_halfwidth()) +
                     " (95% CI across neighbourhoods)");
  bench::compare("share of savings at the ISP side", "~1/3",
                 bench::pct(metrics.isp_share_of_savings()));
  std::cout << "  peak-window online gateways (fleet): "
            << bench::num(metrics.peak_online_gateways(), 1) << " of "
            << metrics.total_gateways() << "\n"
            << "  gateway wake events (fleet day): " << metrics.wake_events() << "\n";

  bench::report().set_field("neighbourhoods", static_cast<long long>(config.neighbourhoods));
  bench::report().set_field("seed", static_cast<unsigned long long>(config.seed));
  bench::report().set_field("fleet_savings", metrics.savings_fraction());
  bench::report().set_field("fleet_savings_ci95", metrics.savings_ci95_halfwidth());
  bench::report().set_field("isp_share", metrics.isp_share_of_savings());
  bench::report().set_field("peak_online_gateways", metrics.peak_online_gateways());
  return bench::finish();
}
