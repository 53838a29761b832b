#include "core/runtime.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "flow/incremental_network.h"
#include "util/error.h"

namespace insomnia::core {

namespace {

power::DevicePowerModel household_model(const ScenarioConfig& scenario) {
  const double watts = scenario.household_watts();
  return {.active_watts = watts, .waking_watts = watts, .asleep_watts = 0.0};
}

}  // namespace

AccessRuntime::AccessRuntime(const ScenarioConfig& scenario,
                             const topo::AccessTopology& topology,
                             const trace::FlowTrace& flows, Policy& policy, sim::Random rng,
                             NetworkFactory make_network)
    : scenario_(&scenario),
      topology_(&topology),
      policy_(&policy),
      rng_(rng),
      simulator_(0.0),
      dslam_(scenario.dslam, rng_),
      households_("households", household_model(scenario), scenario.gateway_count, 0.0,
                  power::PowerState::kAsleep),
      modems_("isp-modems", scenario.power.isp_modem, scenario.dslam_ports(), 0.0,
              power::PowerState::kAsleep),
      cards_("line-cards", scenario.power.line_card, scenario.dslam.line_cards, 0.0,
             power::PowerState::kAsleep),
      online_gateways_(0.0, 0.0),
      online_cards_(0.0, 0.0),
      completion_(flows.empty() ? CompletionTimes::kLiveFirstSegment : flows.size()),
      base_(flows.data()),
      appended_(flows.size()) {
  util::require(topology.gateway_count == scenario.gateway_count,
                "topology and scenario disagree on gateway count");
  util::require(topology.client_count() == scenario.client_count,
                "topology and scenario disagree on client count");
  util::require(scenario.gateway_count <= scenario.dslam_ports(),
                "every gateway needs a DSLAM port");

  simulator_.add_event_stream(&arrivals_);
  std::vector<double> backhaul(static_cast<std::size_t>(scenario.gateway_count),
                               scenario.backhaul_bps);
  network_ = make_network != nullptr
                 ? make_network(simulator_, std::move(backhaul))
                 : std::make_unique<flow::IncrementalFluidNetwork>(simulator_, std::move(backhaul));
  network_->set_completion_sink(this);

  states_.assign(static_cast<std::size_t>(scenario.gateway_count), GatewayState::kAsleep);
  wake_events_.assign(states_.size(), sim::kInvalidEventId);
  idle_events_.assign(states_.size(), sim::kInvalidEventId);
  activation_time_.assign(states_.size(), 0.0);
  client_live_flows_.resize(static_cast<std::size_t>(scenario.client_count));
}

namespace {

/// The input the LiveMode constructor starts from: nothing appended yet.
const trace::FlowTrace kNoTrace;

}  // namespace

AccessRuntime::AccessRuntime(const ScenarioConfig& scenario,
                             const topo::AccessTopology& topology, Policy& policy,
                             sim::Random rng, LiveMode mode)
    : AccessRuntime(scenario, topology, kNoTrace, policy, rng) {
  gated_ = mode.gated;
  input_done_ = false;
}

GatewayState AccessRuntime::gateway_state(int gateway) const {
  return states_.at(static_cast<std::size_t>(gateway));
}

bool AccessRuntime::gateway_active(int gateway) const {
  return gateway_state(gateway) == GatewayState::kActive;
}

int AccessRuntime::online_gateway_count() const {
  int count = 0;
  for (GatewayState s : states_) {
    if (s != GatewayState::kAsleep) ++count;
  }
  return count;
}

double AccessRuntime::wireless_rate(int client, int gateway) const {
  return topology_->home_gateway[static_cast<std::size_t>(client)] == gateway
             ? scenario_->home_wireless_bps
             : scenario_->remote_wireless_bps;
}

double AccessRuntime::gateway_load(int gateway) const {
  return network_->load(gateway, scenario_->bh2.load_window);
}

const std::vector<flow::FlowId>& AccessRuntime::live_flows(int client) const {
  return client_live_flows_.at(static_cast<std::size_t>(client));
}

void AccessRuntime::sync_gateway_meters(int gateway, power::PowerState state) {
  households_.set_state(gateway, state, simulator_.now());
  modems_.set_state(gateway, state, simulator_.now());
  online_gateways_.set(simulator_.now(), static_cast<double>(online_gateway_count()));
}

void AccessRuntime::sync_card_meters() {
  for (int card = 0; card < scenario_->dslam.line_cards; ++card) {
    cards_.set_state(card,
                     dslam_.card_awake(card) ? power::PowerState::kActive
                                             : power::PowerState::kAsleep,
                     simulator_.now());
  }
  online_cards_.set(simulator_.now(), static_cast<double>(dslam_.awake_card_count()));
}

void AccessRuntime::request_wake(int gateway) {
  auto& state = states_.at(static_cast<std::size_t>(gateway));
  if (state != GatewayState::kAsleep) return;
  state = GatewayState::kWaking;
  ++metrics_.gateway_wake_events;
  // The DSLAM side powers up with the premises side: the terminating modem
  // resynchronises and its (possibly remapped) card must be powered.
  dslam_.line_activated(gateway);
  sync_gateway_meters(gateway, power::PowerState::kWaking);
  sync_card_meters();
  wake_events_[static_cast<std::size_t>(gateway)] =
      simulator_.after(scenario_->wake_time, [this, gateway] { finish_wake(gateway); });
}

void AccessRuntime::finish_wake(int gateway) {
  auto& state = states_.at(static_cast<std::size_t>(gateway));
  util::require_state(state == GatewayState::kWaking, "finish_wake on a non-waking gateway");
  state = GatewayState::kActive;
  wake_events_[static_cast<std::size_t>(gateway)] = sim::kInvalidEventId;
  activation_time_[static_cast<std::size_t>(gateway)] = simulator_.now();
  sync_gateway_meters(gateway, power::PowerState::kActive);
  network_->set_gateway_serving(gateway, true);
  if (policy_->sleep_on_idle()) arm_idle_check(gateway);
  policy_->on_gateway_active(*this, gateway);
}

void AccessRuntime::sleep_gateway(int gateway) {
  auto& state = states_.at(static_cast<std::size_t>(gateway));
  util::require_state(state == GatewayState::kActive, "only active gateways sleep via SoI");
  state = GatewayState::kAsleep;
  if (idle_events_[static_cast<std::size_t>(gateway)] != sim::kInvalidEventId) {
    simulator_.cancel(idle_events_[static_cast<std::size_t>(gateway)]);
    idle_events_[static_cast<std::size_t>(gateway)] = sim::kInvalidEventId;
  }
  network_->set_gateway_serving(gateway, false);
  dslam_.line_deactivated(gateway);
  sync_gateway_meters(gateway, power::PowerState::kAsleep);
  sync_card_meters();
}

void AccessRuntime::force_active(int gateway) {
  auto& state = states_.at(static_cast<std::size_t>(gateway));
  if (state == GatewayState::kActive) return;
  if (state == GatewayState::kWaking &&
      wake_events_[static_cast<std::size_t>(gateway)] != sim::kInvalidEventId) {
    simulator_.cancel(wake_events_[static_cast<std::size_t>(gateway)]);
    wake_events_[static_cast<std::size_t>(gateway)] = sim::kInvalidEventId;
  }
  if (state == GatewayState::kAsleep) dslam_.line_activated(gateway);
  state = GatewayState::kActive;
  activation_time_[static_cast<std::size_t>(gateway)] = simulator_.now();
  sync_gateway_meters(gateway, power::PowerState::kActive);
  sync_card_meters();
  network_->set_gateway_serving(gateway, true);
  if (policy_->sleep_on_idle()) arm_idle_check(gateway);
  policy_->on_gateway_active(*this, gateway);
}

void AccessRuntime::force_asleep(int gateway) {
  auto& state = states_.at(static_cast<std::size_t>(gateway));
  if (state == GatewayState::kAsleep) return;
  util::require_state(network_->active_flow_count(gateway) == 0,
                      "cannot force a gateway with live flows asleep");
  if (wake_events_[static_cast<std::size_t>(gateway)] != sim::kInvalidEventId) {
    simulator_.cancel(wake_events_[static_cast<std::size_t>(gateway)]);
    wake_events_[static_cast<std::size_t>(gateway)] = sim::kInvalidEventId;
  }
  if (idle_events_[static_cast<std::size_t>(gateway)] != sim::kInvalidEventId) {
    simulator_.cancel(idle_events_[static_cast<std::size_t>(gateway)]);
    idle_events_[static_cast<std::size_t>(gateway)] = sim::kInvalidEventId;
  }
  state = GatewayState::kAsleep;
  network_->set_gateway_serving(gateway, false);
  dslam_.line_deactivated(gateway);
  sync_gateway_meters(gateway, power::PowerState::kAsleep);
  sync_card_meters();
}

void AccessRuntime::arm_idle_check(int gateway) {
  auto& pending = idle_events_[static_cast<std::size_t>(gateway)];
  const double reference = std::max(network_->last_activity(gateway),
                                    activation_time_[static_cast<std::size_t>(gateway)]);
  const double when = std::max(reference + scenario_->idle_timeout,
                               simulator_.now() + 1e-9);
  // Re-arming an armed timer moves the pending event (the stored closure is
  // identical); only a disarmed gateway needs a fresh one.
  if (pending != sim::kInvalidEventId && simulator_.reschedule(pending, when)) return;
  pending = simulator_.at(when, [this, gateway] {
    idle_events_[static_cast<std::size_t>(gateway)] = sim::kInvalidEventId;
    idle_check(gateway);
  });
}

void AccessRuntime::idle_check(int gateway) {
  if (states_[static_cast<std::size_t>(gateway)] != GatewayState::kActive) return;
  const double reference = std::max(network_->last_activity(gateway),
                                    activation_time_[static_cast<std::size_t>(gateway)]);
  const bool has_flows = network_->active_flow_count(gateway) > 0;
  if (!has_flows && simulator_.now() - reference >= scenario_->idle_timeout - 1e-9) {
    sleep_gateway(gateway);
    return;
  }
  // Not idle. With flows in service last_activity can be stale (it advances
  // only when this gateway's events run), so back off a full timeout;
  // on_flow_complete re-arms the timer exactly when the last flow ends.
  const double when = has_flows ? simulator_.now() + scenario_->idle_timeout
                                : reference + scenario_->idle_timeout;
  auto& pending = idle_events_[static_cast<std::size_t>(gateway)];
  pending = simulator_.at(std::max(when, simulator_.now() + 1e-9), [this, gateway] {
    idle_events_[static_cast<std::size_t>(gateway)] = sim::kInvalidEventId;
    idle_check(gateway);
  });
}

void AccessRuntime::repack_dslam() {
  dslam_.repack_all();
  sync_card_meters();
}

void AccessRuntime::on_flow_complete(const flow::CompletedFlow& done) {
  completion_.set(done.id, done.duration());
  auto& live = client_live_flows_[static_cast<std::size_t>(done.client)];
  live.erase(std::remove(live.begin(), live.end(), done.id), live.end());
  // Re-arm the SoI timer exactly when a gateway drains its last flow.
  if (policy_->sleep_on_idle() &&
      states_[static_cast<std::size_t>(done.gateway)] == GatewayState::kActive &&
      network_->active_flow_count(done.gateway) == 0) {
    arm_idle_check(done.gateway);
  }
  policy_->on_flow_complete(*this, done);
}

void AccessRuntime::arm_next_arrival() {
  if (arrival_armed_ || cursor_ >= appended_) return;
  simulator_.set_stream_head(arrivals_, arrival(cursor_).start_time,
                             simulator_.allocate_sequence());
  arrival_armed_ = true;
}

bool AccessRuntime::arrival_ready() const {
  // Gated live replay holds the LAST buffered arrival back until its
  // successor exists (or never will): the successor's rank is claimed while
  // the head is processed, and claiming it later — after other events
  // allocated sequence numbers — would break same-instant FIFO ties against
  // the offline replay.
  return !gated_ || input_done_ || cursor_ + 1 < appended_;
}

void AccessRuntime::process_arrival() {
  const trace::FlowRecord& record = arrival(cursor_);
  const auto id = static_cast<flow::FlowId>(cursor_);
  ++cursor_;
  arrival_armed_ = false;
  simulator_.set_stream_head(arrivals_, std::numeric_limits<double>::infinity(),
                             arrivals_.head_rank());
  arm_next_arrival();

  const int gateway = policy_->route_flow(*this, record.client, record.bytes);
  util::require_state(gateway >= 0 && gateway < scenario_->gateway_count,
                      "policy routed a flow to an invalid gateway");
  client_live_flows_[static_cast<std::size_t>(record.client)].push_back(id);
  network_->add_flow(id, record.client, gateway, record.bytes,
                     wireless_rate(record.client, gateway));
}

RunMetrics AccessRuntime::run() {
  util::require_state(input_done_, "AccessRuntime::run needs finished input");
  begin_live();
  step_live(scenario_->duration + scenario_->drain_time);
  return finish_live(scenario_->duration);
}

void AccessRuntime::begin_live() {
  util::require_state(!started_, "a day may only be started once");
  started_ = true;
  if (scenario_->start_awake) {
    for (int g = 0; g < scenario_->gateway_count; ++g) force_active(g);
  }
  policy_->start(*this);
  // The first arrival's rank is claimed here, after policy start, whether
  // or not its record has been appended yet.
  arm_next_arrival();
}

void AccessRuntime::append_live_arrivals(const trace::FlowRecord* records,
                                         std::size_t count) {
  util::require_state(!input_done_,
                      "append_live_arrivals after finish_live_input");
  for (std::size_t i = 0; i < count; ++i) {
    trace::FlowRecord record = records[i];
    util::require(record.client >= 0 && record.client < scenario_->client_count,
                  "live arrival client out of range for the scenario");
    // The rule recorded-trace rows follow (trace::parse_flow_row): an
    // infinite start would never be replayed, infinite bytes never finish.
    util::require(std::isfinite(record.start_time) && record.start_time >= 0.0,
                  "live arrival start_time must be finite and non-negative");
    util::require(std::isfinite(record.bytes) && record.bytes >= 0.0,
                  "live arrival bytes must be finite and non-negative");
    if (gated_) {
      util::require(record.start_time >= last_time_,
                    "live arrivals must be sorted by time");
    } else {
      // Wall-clock mode: a late or out-of-order event is decided now — the
      // decision latency is real, the virtual clock never rewinds.
      record.start_time =
          std::max({record.start_time, last_time_, simulator_.now()});
    }
    last_time_ = record.start_time;
    if (appended_ - cursor_ == ring_.size()) grow_ring();
    ring_[appended_ & mask_] = record;
    ++appended_;
  }
  if (started_) arm_next_arrival();
}

void AccessRuntime::grow_ring() {
  std::vector<trace::FlowRecord> grown(std::max<std::size_t>(1024, 2 * ring_.size()));
  const std::size_t mask = grown.size() - 1;
  for (std::size_t i = cursor_; i < appended_; ++i) grown[i & mask] = arrival(i);
  ring_.swap(grown);
  base_ = ring_.data();
  mask_ = mask;
}

void AccessRuntime::finish_live_input() { input_done_ = true; }

AccessRuntime::StepResult AccessRuntime::step_live(double until) {
  util::require_state(started_, "step_live before begin_live");
  if (gated_) {
    return simulator_.run_until_gated(until) ? StepResult::kReachedTime
                                             : StepResult::kNeedArrival;
  }
  simulator_.run_until(until);
  return StepResult::kReachedTime;
}

RunMetrics AccessRuntime::finish_live(double covered_duration) {
  util::require_state(started_, "finish_live before begin_live");
  util::require_state(input_done_, "finish_live before finish_live_input");
  util::require_state(!finished_, "finish_live may only be called once");
  finished_ = true;
  metrics_.duration = covered_duration;
  metrics_.completion_time = completion_.take(appended_);
  metrics_.executed_events = simulator_.executed_events();
  metrics_.user_power = households_.power_series();
  metrics_.isp_power = stats::sum_series({&modems_.power_series(), &cards_.power_series()},
                                         scenario_->power.shelf.active_watts);
  metrics_.online_gateways = online_gateways_;
  metrics_.online_cards = online_cards_;
  metrics_.gateway_online_time.resize(static_cast<std::size_t>(scenario_->gateway_count));
  for (int g = 0; g < scenario_->gateway_count; ++g) {
    metrics_.gateway_online_time[static_cast<std::size_t>(g)] =
        households_.online_time(g, 0.0, metrics_.duration);
  }
  // The day ends once, so the metrics move out.
  return std::move(metrics_);
}

void AccessRuntime::CompletionTimes::set(std::size_t id, double value) {
  while (id >= capacity_) {
    segments_.emplace_back(first_ << segments_.size(), std::numeric_limits<double>::quiet_NaN());
    capacity_ += segments_.back().size();
  }
  // Flows mostly finish soon after they arrive, so the newest segment (half
  // the ids) is nearly always the one.
  std::size_t k = segments_.size() - 1;
  std::size_t start = capacity_ - segments_[k].size();
  while (id < start) {
    --k;
    start -= segments_[k].size();
  }
  segments_[k][id - start] = value;
}

std::vector<double> AccessRuntime::CompletionTimes::take(std::size_t count) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  if (segments_.size() == 1) {
    std::vector<double> out = std::move(segments_.front());
    out.resize(count, kNaN);
    return out;
  }
  std::vector<double> out(count, kNaN);
  std::size_t start = 0;
  for (const std::vector<double>& segment : segments_) {
    if (start >= count) break;
    const std::size_t n = std::min(segment.size(), count - start);
    std::copy_n(segment.begin(), n, out.begin() + static_cast<std::ptrdiff_t>(start));
    start += segment.size();
  }
  return out;
}

}  // namespace insomnia::core
