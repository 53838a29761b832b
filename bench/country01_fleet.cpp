// Country-scale federated fleet (§5.4 fully simulated): a weighted portfolio
// of heterogeneous cities — dense metro cores, suburban carpets, sparse
// rural stretches, developing-world deployments — simulated city by city and
// rolled up into a world TWh/yr figure with a 95 % confidence interval. At
// full scale (--scale 1 --nbhd-scale 1) the portfolio holds ≥1M gateways;
// that is a multi-hour run, so it checkpoints (--checkpoint DIR) and resumes
// bit-identically, and can fan out over processes (--procs N) sharing the
// checkpoint directory.
//
// Knobs: --scale F (cities per region ×F), --nbhd-scale F (neighbourhood
// ranges ×F), --seed S, --scheme NAME, --threads N, --procs N,
// --checkpoint DIR, --flush-every N, --max-shards N (stop after N new city
// shards — the resume test hook), --fault-spec SPEC (deterministic chaos,
// see docs/RESILIENCE.md; INSOMNIA_FAULTS is the env form), --max-attempts N
// (per-shard retry budget), --fail-fast (abort on first failure instead of
// quarantining), --json PATH, --list-schemes.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/extrapolation.h"
#include "country/country_config.h"
#include "country/country_runner.h"
#include "country/world_extrapolation.h"
#include "obs/heartbeat.h"
#include "obs/rss.h"
#include "resilience/fault_plan.h"
#include "util/json_writer.h"
#include "util/table.h"

namespace {

using namespace insomnia;

struct Args {
  country::CountryConfig config;
  country::CountryRunOptions options;
};

Args parse_args(int argc, char** argv) {
  Args args;
  double scale = 1.0;
  double nbhd_scale = 1.0;
  std::uint64_t seed = 42;
  // Chaos plan from the environment unless --fault-spec overrides below;
  // retries back off 20..250 ms (full jitter) so transient faults don't
  // retry-storm, while clean runs never sleep at all.
  args.options.faults = resilience::global_fault_plan();
  args.options.backoff_base_ms = 20.0;
  args.options.backoff_cap_ms = 250.0;
  for (int i = 1; i < argc; ++i) {
    if (bench::handle_common_flag(argc, argv, i)) continue;
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) throw util::InvalidArgument(std::string(flag) + " needs a value");
      return argv[++i];
    };
    const auto positive_double = [&](const char* flag) -> double {
      const auto parsed = util::parse_double(value(flag));
      util::require(parsed.has_value() && *parsed > 0.0,
                    std::string(flag) + " must be a positive number");
      return *parsed;
    };
    const auto positive_int = [&](const char* flag) -> int {
      const auto parsed = util::parse_positive_int(value(flag));
      util::require(parsed.has_value(), std::string(flag) + " must be a positive integer");
      return *parsed;
    };
    if (arg == "--scale") {
      scale = positive_double("--scale");
    } else if (arg == "--nbhd-scale") {
      nbhd_scale = positive_double("--nbhd-scale");
    } else if (arg == "--seed") {
      const auto parsed = util::parse_uint64(value("--seed"));
      util::require(parsed.has_value(), "--seed must be an unsigned 64-bit integer");
      seed = *parsed;
    } else if (arg == "--procs") {
      args.options.procs = positive_int("--procs");
    } else if (arg == "--checkpoint") {
      args.options.checkpoint_dir = value("--checkpoint");
    } else if (arg == "--flush-every") {
      args.options.flush_every = positive_int("--flush-every");
    } else if (arg == "--max-shards") {
      args.options.max_city_shards = static_cast<std::size_t>(positive_int("--max-shards"));
    } else if (arg == "--fault-spec") {
      args.options.faults = resilience::parse_fault_plan(value("--fault-spec"));
      // Forked workers and the trace layer read the global plan.
      resilience::set_global_fault_plan(args.options.faults);
    } else if (arg == "--list-faults") {
      std::cout << resilience::fault_spec_help();
      std::exit(0);
    } else if (arg == "--max-attempts") {
      args.options.max_attempts = positive_int("--max-attempts");
    } else if (arg == "--fail-fast") {
      args.options.fail_fast = true;
    } else {
      throw util::InvalidArgument(
          "unknown argument \"" + arg + "\"; usage: " + argv[0] +
          " [--scale F] [--nbhd-scale F] [--seed S] [--scheme NAME] [--threads N]"
          " [--procs N] [--checkpoint DIR] [--flush-every N] [--max-shards N]"
          " [--fault-spec SPEC] [--list-faults] [--max-attempts N] [--fail-fast]"
          " [--json PATH] [--list-schemes]");
    }
  }
  args.config = country::default_country(scale, nbhd_scale);
  args.config.seed = seed;
  args.config.scheme = bench::scheme_or(args.config.scheme).name;
  country::validate(args.config);
  // Progress heartbeat every 2 s by default; INSOMNIA_HEARTBEAT=SECONDS
  // retunes it, "off" silences it.
  args.options.heartbeat_sec = obs::Heartbeat::interval_from_env(2.0);
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace insomnia;
  bench::banner("Country fleet (§5.4)",
                "country-scale federated fleet with checkpoint/resume");

  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const util::InvalidArgument& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
  args.config.threads = bench::threads_from_env_or_exit();

  const std::size_t shards = country::total_city_shards(args.config);
  std::cout << shards << " city shards over " << args.config.regions.size()
            << " regions, seed " << args.config.seed << ", scheme "
            << core::find_scheme(args.config.scheme).display;
  if (!args.options.checkpoint_dir.empty()) {
    std::cout << ", checkpoint " << args.options.checkpoint_dir;
  }
  if (args.options.procs > 1) std::cout << ", " << args.options.procs << " procs";
  std::cout << "\n";
  if (args.options.faults.any()) {
    std::cout << "fault plan: " << args.options.faults.summary() << " (max "
              << args.options.max_attempts << " attempts/shard, "
              << (args.options.fail_fast ? "fail-fast" : "degrade") << ")\n";
  }
  std::cout << "\n";

  country::CountryResult result;
  try {
    result = country::run_country(args.config, args.options);
  } catch (const std::exception& error) {
    // Fail-fast aborts, zero-coverage refusals, corrupt committed
    // checkpoints: loud, single-line, non-zero — not an uncaught abort.
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }

  const std::uint64_t rss = obs::rss_peak_bytes();
  if (rss > 0) {
    std::cout << "peak RSS: " << bench::num(static_cast<double>(rss) / (1024.0 * 1024.0), 1)
              << " MiB\n";
  }

  // Self-healing and degradation report. Only stdout for self-healed runs:
  // a fault-free and a fully-recovered chaos run must emit byte-identical
  // --json, so the report gains keys only when cities were actually lost.
  if (!result.child_failures.empty()) {
    std::cout << "self-healed " << result.child_failures.size()
              << " worker failure(s):\n";
    for (const country::ChildFailure& failure : result.child_failures) {
      std::cout << "  " << failure.describe() << "\n";
    }
  }
  if (result.degraded()) {
    std::cout << "DEGRADED: " << result.quarantined.size() << " of "
              << result.total_shards << " cities quarantined (coverage "
              << bench::pct(result.coverage()) << "); CIs below widen from the "
              << "smaller surviving sample\n";
    for (const country::QuarantinedCity& q : result.quarantined) {
      std::cout << "  region " << q.region << " city " << q.city << " after "
                << q.attempts << " attempts: " << q.reason << "\n";
    }
    std::cout << "\n";

    util::JsonWriter degraded;
    degraded.begin_object();
    degraded.field("coverage", result.coverage());
    degraded.key("quarantined").begin_array();
    for (const country::QuarantinedCity& q : result.quarantined) {
      degraded.begin_object();
      degraded.field("region", args.config.regions[q.region].name);
      degraded.field("city", static_cast<std::int64_t>(q.city));
      degraded.field("attempts", static_cast<std::int64_t>(q.attempts));
      degraded.field("reason", q.reason);
      degraded.end_object();
    }
    degraded.end_array();
    degraded.end_object();
    bench::report().set_raw_field("degraded", degraded.str());
  }

  bench::report().set_field("seed", static_cast<unsigned long long>(args.config.seed));
  bench::report().set_field("city_shards", static_cast<long long>(shards));
  bench::report().set_field("completed_shards",
                            static_cast<long long>(result.completed_shards));
  bench::report().set_field("complete", result.complete ? 1.0 : 0.0);

  if (!result.complete) {
    std::cout << "stopped after " << result.completed_shards << " of " << shards
              << " city shards (max-shards hook); rerun with the same checkpoint "
                 "directory to resume\n";
    return bench::finish();
  }

  const country::CountryMetrics& metrics = result.metrics;
  util::TextTable table;
  table.set_header({"region", "cities", "nbhds", "gateways", "clients", "baseline W",
                    "scheme W", "savings", "ci95"});
  const auto add_row = [&](const std::string& name, std::size_t cities,
                           const city::FleetTotals& totals) {
    table.add_row({name, std::to_string(cities), std::to_string(totals.neighbourhoods),
                   std::to_string(totals.gateways), std::to_string(totals.clients),
                   bench::num(totals.baseline_watts, 0), bench::num(totals.scheme_watts, 0),
                   bench::pct(totals.savings_fraction()),
                   bench::pct(totals.savings_ci95_halfwidth())});
  };
  for (const country::RegionMetrics& region : metrics.per_region()) {
    add_row(region.name, region.cities, region);
  }
  add_row("country", metrics.cities(), metrics.totals());
  table.print(std::cout);

  std::cout << "\n";
  bench::compare("country savings (energy-weighted)", "66% (one fixed neighbourhood)",
                 bench::pct(metrics.savings_fraction()) + " ± " +
                     bench::pct(metrics.savings_ci95_halfwidth()) +
                     " (95% CI across neighbourhoods)");
  bench::compare("share of savings at the ISP side", "~1/3",
                 bench::pct(metrics.isp_share_of_savings()));
  std::cout << "  peak-window online gateways (country): "
            << bench::num(metrics.peak_online_gateways(), 1) << " of "
            << metrics.total_gateways() << "\n"
            << "  gateway wake events (country day): " << metrics.wake_events() << "\n";

  // §5.4, twice: the fully simulated portfolio roll-up, then the paper's
  // four constants — same subscriber base, so the rows are comparable.
  const country::CountryWorldEstimate world = country::annual_savings_from_country(metrics);
  const core::WorldExtrapolationConfig paper{};
  std::cout << "\nWorld extrapolation ("
            << bench::num(paper.dsl_subscribers / 1e6, 0) << "M DSL subscribers):\n";
  bench::compare("annual savings",
                 bench::num(core::annual_savings_twh(paper), 1) + " TWh (paper constants)",
                 bench::num(world.split.total_twh(), 1) + " ± " +
                     bench::num(world.total_twh_ci95, 1) +
                     " TWh (simulated country, 95% CI)");
  bench::compare("user / ISP split", "~2/3 / ~1/3",
                 bench::num(world.split.user_twh, 1) + " / " +
                     bench::num(world.split.isp_twh, 1) + " TWh");
  bench::compare("equivalent nuclear plants",
                 bench::num(core::equivalent_nuclear_plants(paper), 1) +
                     " (paper constants)",
                 bench::num(core::equivalent_nuclear_plants(world.config), 1) +
                     " (simulated country)");
  std::cout << "  simulated per-subscriber draw: household "
            << bench::num(world.config.household_watts) << " W, ISP "
            << bench::num(world.config.isp_watts_per_subscriber) << " W\n";

  bench::report().set_field("total_gateways",
                            static_cast<long long>(metrics.total_gateways()));
  bench::report().set_field("country_savings", metrics.savings_fraction());
  bench::report().set_field("country_savings_ci95", metrics.savings_ci95_halfwidth());
  bench::report().set_field("isp_share", metrics.isp_share_of_savings());
  bench::report().set_field("annual_savings_twh_simulated", world.split.total_twh());
  bench::report().set_field("annual_savings_twh_ci95", world.total_twh_ci95);
  bench::report().set_field("annual_savings_twh_user", world.split.user_twh);
  bench::report().set_field("annual_savings_twh_isp", world.split.isp_twh);
  return bench::finish();
}
