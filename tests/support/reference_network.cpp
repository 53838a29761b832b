#include "support/reference_network.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/error.h"

namespace insomnia::flow {

ReferenceFluidNetwork::ReferenceFluidNetwork(sim::Simulator& simulator,
                                             std::vector<double> backhaul_rates)
    : simulator_(&simulator) {
  util::require(!backhaul_rates.empty(), "FluidNetwork needs at least one gateway");
  gateways_.reserve(backhaul_rates.size());
  for (double rate : backhaul_rates) {
    util::require(rate > 0.0, "backhaul rates must be positive");
    gateways_.emplace_back(rate, simulator.now());
  }
}

ReferenceFluidNetwork::~ReferenceFluidNetwork() {
  obs::counter("flow.waterfills").add(waterfills_);
}

ReferenceFluidNetwork::GatewayState& ReferenceFluidNetwork::gateway(int g) {
  return gateways_.at(static_cast<std::size_t>(g));
}

const ReferenceFluidNetwork::GatewayState& ReferenceFluidNetwork::gateway(int g) const {
  return gateways_.at(static_cast<std::size_t>(g));
}

bool ReferenceFluidNetwork::dense_id(FlowId id) const {
  // Growing the flat vector is fine while it stays proportionate to the
  // flows actually added; a far outlier (sparse trace id) must not make it
  // balloon.
  if (id < id_to_index_.size()) return true;
  const std::size_t ceiling = std::max<std::size_t>(1024, 4 * (flows_.size() + 1));
  return id < ceiling;
}

std::size_t ReferenceFluidNetwork::find_index(FlowId id) const {
  // The dense vector may later grow past an id that went to the overflow
  // map while it was still an outlier, so an empty dense entry must fall
  // through to the map (cheap: the map is almost always empty).
  if (id < id_to_index_.size() && id_to_index_[id] != kNoIndex) return id_to_index_[id];
  if (id_overflow_.empty()) return kNoIndex;
  const auto it = id_overflow_.find(id);
  return it == id_overflow_.end() ? kNoIndex : it->second;
}

void ReferenceFluidNetwork::store_index(FlowId id, std::size_t index) {
  if (dense_id(id)) {
    if (id_to_index_.size() <= id) id_to_index_.resize(id + 1, kNoIndex);
    id_to_index_[id] = index;
  } else {
    id_overflow_[id] = index;
  }
}

void ReferenceFluidNetwork::erase_index(FlowId id) {
  // Mirror find_index: the mapping lives in the dense vector or, for an id
  // that was an outlier when stored, in the overflow map — even if the
  // vector has since grown past it.
  if (id < id_to_index_.size() && id_to_index_[id] != kNoIndex) {
    id_to_index_[id] = kNoIndex;
  } else {
    id_overflow_.erase(id);
  }
}

ReferenceFluidNetwork::FlowState& ReferenceFluidNetwork::flow_by_id(FlowId id) {
  const std::size_t index = find_index(id);
  util::require(index != kNoIndex, "unknown flow id");
  return flows_[index];
}

void ReferenceFluidNetwork::insert_sorted(GatewayState& gw, std::size_t flow, double cap,
                                          std::uint64_t seq) {
  const SortedCap entry{cap, seq, flow};
  const auto pos = std::upper_bound(gw.sorted.begin(), gw.sorted.end(), entry,
                                    [](const SortedCap& a, const SortedCap& b) {
                                      if (a.cap != b.cap) return a.cap < b.cap;
                                      return a.seq < b.seq;
                                    });
  gw.sorted.insert(pos, entry);
}

std::uint64_t ReferenceFluidNetwork::remove_sorted(GatewayState& gw, std::size_t flow) {
  for (auto it = gw.sorted.begin(); it != gw.sorted.end(); ++it) {
    if (it->flow == flow) {
      const std::uint64_t seq = it->seq;
      gw.sorted.erase(it);
      return seq;
    }
  }
  util::require_state(false, "flow missing from the gateway's cap order");
  return 0;
}

void ReferenceFluidNetwork::add_flow(FlowId id, int client, int gateway_id, double bytes,
                                     double wireless_cap) {
  util::require(bytes >= 0.0 && wireless_cap > 0.0,
                "flows need non-negative bytes and a positive wireless cap");
  advance(gateway_id);

  FlowState state;
  state.id = id;
  state.client = client;
  state.gateway = gateway_id;
  state.arrival_time = simulator_->now();
  state.bytes = bytes;
  state.remaining_bits = bytes * 8.0;
  state.wireless_cap = wireless_cap;

  GatewayState& gw = gateway(gateway_id);
  gw.last_activity = simulator_->now();

  if (state.remaining_bits <= kEpsilonBits) {
    state.done = true;
    complete({id, client, gateway_id, state.arrival_time, simulator_->now(), bytes});
    return;
  }

  util::require(find_index(id) == kNoIndex, "duplicate flow id");
  store_index(id, flows_.size());
  flows_.push_back(state);
  gw.flows.push_back(flows_.size() - 1);
  insert_sorted(gw, flows_.size() - 1, wireless_cap, gw.next_cap_seq++);
  ++live_flows_;
  reallocate(gateway_id);
}

void ReferenceFluidNetwork::migrate_flow(FlowId id, int new_gateway, double new_wireless_cap) {
  util::require(new_wireless_cap > 0.0, "migrated flow needs a positive wireless cap");
  const std::size_t index = find_index(id);
  if (index == kNoIndex) return;
  if (flows_[index].done) return;
  const int old_gateway = flows_[index].gateway;
  if (old_gateway == new_gateway) {
    advance(old_gateway);
    if (!flows_[index].done) {
      // Re-seat the flow in the cap order under its original stamp: a cap
      // change must not alter its FIFO rank among equal caps.
      GatewayState& gw = gateway(old_gateway);
      const std::uint64_t seq = remove_sorted(gw, index);
      insert_sorted(gw, index, new_wireless_cap, seq);
      flows_[index].wireless_cap = new_wireless_cap;
    }
    reallocate(old_gateway);
    return;
  }
  advance(old_gateway);
  advance(new_gateway);
  // The flow may have completed during advance(old_gateway).
  if (flows_[index].done) return;

  GatewayState& old_gw = gateway(old_gateway);
  auto& old_list = old_gw.flows;
  old_list.erase(std::remove(old_list.begin(), old_list.end(), index), old_list.end());
  remove_sorted(old_gw, index);
  flows_[index].gateway = new_gateway;
  flows_[index].wireless_cap = new_wireless_cap;
  GatewayState& new_gw = gateway(new_gateway);
  new_gw.flows.push_back(index);
  insert_sorted(new_gw, index, new_wireless_cap, new_gw.next_cap_seq++);
  reallocate(old_gateway);
  reallocate(new_gateway);
}

void ReferenceFluidNetwork::set_gateway_serving(int gateway_id, bool serving) {
  GatewayState& gw = gateway(gateway_id);
  if (gw.serving == serving) return;
  advance(gateway_id);
  gw.serving = serving;
  reallocate(gateway_id);
}

bool ReferenceFluidNetwork::gateway_serving(int gateway_id) const {
  return gateway(gateway_id).serving;
}

int ReferenceFluidNetwork::active_flow_count(int gateway_id) const {
  return static_cast<int>(gateway(gateway_id).flows.size());
}

int ReferenceFluidNetwork::client_flow_count_at(int client, int gateway_id) const {
  int count = 0;
  for (std::size_t index : gateway(gateway_id).flows) {
    if (flows_[index].client == client) ++count;
  }
  return count;
}

double ReferenceFluidNetwork::client_throughput_at(int client, int gateway_id) const {
  double total = 0.0;
  for (std::size_t index : gateway(gateway_id).flows) {
    if (flows_[index].client == client) total += flows_[index].rate;
  }
  return total;
}

double ReferenceFluidNetwork::gateway_throughput(int gateway_id) const {
  return gateway(gateway_id).throughput;
}

double ReferenceFluidNetwork::served_bits(int gateway_id, double t0, double t1) const {
  return gateway(gateway_id).served.integral(t0, t1);
}

double ReferenceFluidNetwork::load(int gateway_id, double window) const {
  util::require(window > 0.0, "load needs a positive window");
  const GatewayState& gw = gateway(gateway_id);
  const double t1 = simulator_->now();
  const double t0 = std::max(t1 - window, 0.0);
  if (t1 <= t0) return 0.0;
  // Same instant, same window, untouched series: the integral would come
  // out bit-identical, so the memo is exact. (A same-instant set() only
  // rewrites the zero-width tail at t1, which contributes nothing to
  // [t0, t1]; any other mutation changes the change count.)
  if (gw.load_cache_time == t1 && gw.load_cache_window == window &&
      gw.load_cache_changes == gw.served.change_count()) {
    return gw.load_cache_value;
  }
  const double value = gw.served.integral(t0, t1) / (window * gw.backhaul);
  gw.load_cache_time = t1;
  gw.load_cache_window = window;
  gw.load_cache_changes = gw.served.change_count();
  gw.load_cache_value = value;
  return value;
}

double ReferenceFluidNetwork::last_activity(int gateway_id) const {
  return gateway(gateway_id).last_activity;
}

void ReferenceFluidNetwork::advance(int gateway_id) {
  GatewayState& gw = gateway(gateway_id);
  const double now = simulator_->now();
  const double dt = now - gw.last_progress;
  if (dt > 0.0) {
    if (gw.throughput > 0.0) gw.last_activity = now;
    gw.last_progress = now;
  }
  if (gw.flows.empty()) return;

  // Completion detection runs even for dt == 0: floating-point residue can
  // leave a flow with a sliver of remaining bits whose service time rounds
  // to zero, and it must still terminate.
  gw.finished.clear();
  for (std::size_t index : gw.flows) {
    FlowState& f = flows_[index];
    if (dt > 0.0) f.remaining_bits -= f.rate * dt;
    if (f.remaining_bits <= kEpsilonBits) {
      f.remaining_bits = 0.0;
      f.done = true;
      gw.finished.push_back(index);
    }
  }
  if (gw.finished.empty()) return;
  gw.flows.erase(std::remove_if(gw.flows.begin(), gw.flows.end(),
                                [this](std::size_t index) { return flows_[index].done; }),
                 gw.flows.end());
  gw.sorted.erase(
      std::remove_if(gw.sorted.begin(), gw.sorted.end(),
                     [this](const SortedCap& entry) { return flows_[entry.flow].done; }),
      gw.sorted.end());
  live_flows_ -= static_cast<int>(gw.finished.size());
  // Detach the scratch while running completion callbacks: a callback that
  // re-enters advance() for this gateway must not clobber the list mid
  // iteration.
  std::vector<std::size_t> finished;
  finished.swap(gw.finished);
  for (std::size_t index : finished) {
    const FlowState& f = flows_[index];
    erase_index(f.id);
    complete({f.id, f.client, f.gateway, f.arrival_time, now, f.bytes});
  }
  // Hand the warm buffer back for the next advance() on this gateway.
  finished.clear();
  if (gw.finished.capacity() < finished.capacity()) finished.swap(gw.finished);
}

void ReferenceFluidNetwork::reallocate(int gateway_id) {
  ++waterfills_;
  GatewayState& gw = gateway(gateway_id);
  const double now = simulator_->now();

  if (!gw.serving || gw.flows.empty()) {
    if (gw.completion_event != sim::kInvalidEventId) {
      simulator_->cancel(gw.completion_event);
      gw.completion_event = sim::kInvalidEventId;
    }
    for (std::size_t index : gw.flows) flows_[index].rate = 0.0;
    gw.throughput = 0.0;
    gw.served.set(now, 0.0);
    return;
  }

  // Water-fill over the caps kept in ascending order: a flow whose cap is
  // below the running equal share freezes at its cap and releases the
  // surplus. One pass, no sort, no allocation.
  double remaining = gw.backhaul;
  std::size_t left = gw.sorted.size();
  for (const SortedCap& entry : gw.sorted) {
    const double share = remaining / static_cast<double>(left);
    const double rate = std::min(entry.cap, share);
    flows_[entry.flow].rate = rate;
    remaining -= rate;
    --left;
  }

  // Totals accumulate in arrival order (gw.flows), matching the historical
  // loop bit for bit.
  double total = 0.0;
  double next_completion = std::numeric_limits<double>::infinity();
  for (std::size_t index : gw.flows) {
    const FlowState& f = flows_[index];
    total += f.rate;
    if (f.rate > 0.0) {
      next_completion = std::min(next_completion, now + f.remaining_bits / f.rate);
    }
  }
  gw.throughput = total;
  gw.served.set(now, total);

  if (std::isfinite(next_completion)) {
    // Never schedule at (or below) the current instant: with a large clock
    // value a tiny remaining/rate quotient can round to zero, and a
    // same-instant event would re-enter this path forever.
    next_completion = std::max(next_completion, now + kMinEventDelay);
    if (gw.completion_event != sim::kInvalidEventId) {
      // Reuse the stored closure; if the completion instant did not move,
      // the already scheduled event is still right and we skip entirely.
      if (next_completion != gw.next_completion) {
        simulator_->reschedule(gw.completion_event, next_completion);
        gw.next_completion = next_completion;
      }
    } else {
      gw.completion_event = simulator_->at(next_completion, [this, gateway_id] {
        gateway(gateway_id).completion_event = sim::kInvalidEventId;
        advance(gateway_id);
        reallocate(gateway_id);
      });
      gw.next_completion = next_completion;
    }
  } else if (gw.completion_event != sim::kInvalidEventId) {
    simulator_->cancel(gw.completion_event);
    gw.completion_event = sim::kInvalidEventId;
  }
}

}  // namespace insomnia::flow
