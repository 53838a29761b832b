#include "core/testbed.h"

#include <algorithm>

#include "core/metrics.h"
#include "core/scheme_registry.h"
#include "sim/random.h"
#include "stats/timeseries.h"
#include "topology/access_topology.h"
#include "trace/flow_ops.h"
#include "trace/synthetic_crawdad.h"
#include "util/error.h"

namespace insomnia::core {

namespace {

/// Folds the traced clients onto replay terminals by their home AP (each
/// laptop replays all clients of one traced AP, §5.3) and cuts the window.
trace::FlowTrace fold_window(const trace::FlowTrace& flows, const std::vector<int>& client_ap,
                             const std::vector<int>& chosen_aps, double start, double end) {
  std::vector<int> client_map(client_ap.size(), -1);
  for (std::size_t c = 0; c < client_ap.size(); ++c) {
    const auto it = std::find(chosen_aps.begin(), chosen_aps.end(), client_ap[c]);
    if (it != chosen_aps.end()) {
      client_map[c] = static_cast<int>(it - chosen_aps.begin());
    }
  }
  return trace::window_trace(trace::fold_clients(flows, client_map), start, end);
}

}  // namespace

TestbedResult run_testbed_emulation(const TestbedConfig& config) {
  util::require(config.window_end > config.window_start, "empty testbed window");
  util::require(config.runs >= 1, "testbed needs at least one run");
  const SchemeSpec& under_test = find_scheme(config.scheme);

  // Scenario: 9 clients (one replay terminal per gateway), warm start,
  // 3 Mbps lines, one fixed-wiring line card (no DSLAM side in the testbed).
  ScenarioConfig scenario = config.base;
  scenario.client_count = config.gateway_count;
  scenario.gateway_count = config.gateway_count;
  scenario.backhaul_bps = config.backhaul_bps;
  scenario.duration = config.window_end - config.window_start;
  scenario.start_awake = true;
  // The testbed has no DSLAM side; give the runtime a minimal one that any
  // scheme's switch mode accepts (k = 4 divides 4 cards; 12 ports >= 9).
  scenario.dslam.line_cards = 4;
  scenario.dslam.ports_per_card = 3;
  scenario.dslam.switch_size = 4;
  scenario.degrees.node_count = config.gateway_count;

  const trace::SyntheticCrawdadGenerator generator(config.base.traffic);
  const int traced_clients = config.base.traffic.client_count;
  const int traced_aps = config.base.gateway_count;

  TestbedResult result;
  std::vector<std::vector<double>> soi_series;
  std::vector<std::vector<double>> bh2_series;

  for (int run = 0; run < config.runs; ++run) {
    sim::Random rng(config.seed + static_cast<std::uint64_t>(run) * 7919);

    // Trace: a full day for the traced population, folded onto terminals.
    // Client->AP association is Zipf-skewed: real enterprise WLANs have a
    // few hot APs and a long tail of quiet ones, which is what gives the
    // §5.3 window its idle stretches (uniform assignment would make every
    // replayed AP moderately busy and unsleepable).
    const trace::FlowTrace day = generator.generate(rng);
    std::vector<double> ap_weight(static_cast<std::size_t>(traced_aps));
    for (int a = 0; a < traced_aps; ++a) {
      ap_weight[static_cast<std::size_t>(a)] = 1.0 / static_cast<double>(a + 1);
    }
    rng.shuffle(ap_weight);
    std::vector<int> client_ap(static_cast<std::size_t>(traced_clients));
    for (int c = 0; c < traced_clients; ++c) {
      client_ap[static_cast<std::size_t>(c)] = static_cast<int>(rng.weighted_index(ap_weight));
    }
    std::vector<int> aps(static_cast<std::size_t>(traced_aps));
    for (int i = 0; i < traced_aps; ++i) aps[static_cast<std::size_t>(i)] = i;
    rng.shuffle(aps);
    aps.resize(static_cast<std::size_t>(config.gateway_count));
    const trace::FlowTrace window =
        fold_window(day, client_ap, aps, config.window_start, config.window_end);

    // Topology: dense overlap limited to 3 gateways per terminal; terminal
    // i owns gateway i.
    topo::AccessTopology dense = topo::make_binomial_topology(
        config.gateway_count, config.gateway_count, 5.5, rng);
    for (int c = 0; c < config.gateway_count; ++c) {
      // Force terminal c's home to be gateway c (one owner per line).
      dense.home_gateway[static_cast<std::size_t>(c)] = c;
      auto& reach = dense.client_gateways[static_cast<std::size_t>(c)];
      reach.erase(std::remove(reach.begin(), reach.end(), c), reach.end());
      reach.insert(reach.begin(), c);
    }
    const topo::AccessTopology topology =
        topo::limit_gateways_per_client(dense, config.max_gateways_in_range, rng);

    const RunMetrics soi = run_scheme(scenario, topology, window, find_scheme("soi"),
                                      config.seed + static_cast<std::uint64_t>(run) * 31 + 1);
    const RunMetrics bh2 =
        run_scheme(scenario, topology, window, under_test,
                   config.seed + static_cast<std::uint64_t>(run) * 31 + 2);

    soi_series.push_back(soi.online_gateways.binned_means(0.0, scenario.duration, config.bins));
    bh2_series.push_back(bh2.online_gateways.binned_means(0.0, scenario.duration, config.bins));
    result.soi_mean_online += soi.online_gateways.mean(0.0, scenario.duration);
    result.bh2_mean_online += bh2.online_gateways.mean(0.0, scenario.duration);
  }

  result.soi_online = stats::elementwise_mean(soi_series);
  result.bh2_online = stats::elementwise_mean(bh2_series);
  result.soi_mean_online /= static_cast<double>(config.runs);
  result.bh2_mean_online /= static_cast<double>(config.runs);
  result.soi_mean_sleeping = config.gateway_count - result.soi_mean_online;
  result.bh2_mean_sleeping = config.gateway_count - result.bh2_mean_online;
  return result;
}

}  // namespace insomnia::core
