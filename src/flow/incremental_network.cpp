#include "flow/incremental_network.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/error.h"

namespace insomnia::flow {

IncrementalFluidNetwork::IncrementalFluidNetwork(sim::Simulator& simulator,
                                                 std::vector<double> backhaul_rates)
    : simulator_(&simulator) {
  util::require(!backhaul_rates.empty(), "FluidNetwork needs at least one gateway");
  gateways_.reserve(backhaul_rates.size());
  for (double rate : backhaul_rates) {
    util::require(rate > 0.0, "backhaul rates must be positive");
    gateways_.emplace_back(rate, simulator.now());
  }
  simulator.add_event_stream(this);
}

IncrementalFluidNetwork::~IncrementalFluidNetwork() {
  simulator_->remove_event_stream(this);
  obs::counter("flow.waterfills").add(waterfills_);
}

IncrementalFluidNetwork::GatewayState& IncrementalFluidNetwork::gateway(int g) {
  return gateways_.at(static_cast<std::size_t>(g));
}

const IncrementalFluidNetwork::GatewayState& IncrementalFluidNetwork::gateway(int g) const {
  return gateways_.at(static_cast<std::size_t>(g));
}

void IncrementalFluidNetwork::mark_dirty(int g) {
  GatewayState& gw = gateway(g);
  if (!gw.dirty) {
    gw.dirty = true;
    dirty_list_.push_back(g);
  }
  simulator_->request_flush();
}

void IncrementalFluidNetwork::flush() {
  for (std::size_t i = 0; i < dirty_list_.size(); ++i) {
    const int g = dirty_list_[i];
    if (gateways_[static_cast<std::size_t>(g)].dirty) {
      gateways_[static_cast<std::size_t>(g)].dirty = false;
      waterfill(g);
    }
  }
  dirty_list_.clear();
  arm_master();
}

void IncrementalFluidNetwork::flush_gateway(int g) {
  GatewayState& gw = gateway(g);
  if (!gw.dirty) return;
  gw.dirty = false;
  waterfill(g);
  // The master head is re-armed by the barrier flush, which the
  // request_flush() that accompanied mark_dirty() guarantees runs before
  // the clock next moves.
}

void IncrementalFluidNetwork::insert_sorted(GatewayState& gw, FlowBlock::Pos pos, double cap,
                                            std::uint64_t seq) {
  const SortedCap entry{cap, seq, pos};
  const auto it = std::upper_bound(gw.sorted.begin(), gw.sorted.end(), entry,
                                   [](const SortedCap& a, const SortedCap& b) {
                                     if (a.cap != b.cap) return a.cap < b.cap;
                                     return a.seq < b.seq;
                                   });
  gw.sorted.insert(it, entry);
}

std::uint64_t IncrementalFluidNetwork::remove_sorted(GatewayState& gw, FlowBlock::Pos pos) {
  for (auto it = gw.sorted.begin(); it != gw.sorted.end(); ++it) {
    if (it->pos == pos) {
      const std::uint64_t seq = it->seq;
      gw.sorted.erase(it);
      return seq;
    }
  }
  util::require_state(false, "flow missing from the gateway's cap order");
  return 0;
}

void IncrementalFluidNetwork::add_flow(FlowId id, int client, int gateway_id, double bytes,
                                       double wireless_cap) {
  util::require(bytes >= 0.0 && wireless_cap > 0.0,
                "flows need non-negative bytes and a positive wireless cap");
  advance(gateway_id);

  const double now = simulator_->now();
  GatewayState& gw = gateway(gateway_id);
  gw.last_activity = now;

  const double remaining_bits = bytes * 8.0;
  if (remaining_bits <= kEpsilonBits) {
    // Mirrors the reference exactly: a zero-byte flow completes on the spot
    // and does NOT trigger a re-waterfill, even though the advance() above
    // may have completed flows and left survivor rates stale.
    complete({id, client, gateway_id, now, now, bytes});
    return;
  }

  util::require(!index_.find(id).valid(), "duplicate flow id");
  FlowState flow;
  flow.id = id;
  flow.arrival_time = now;
  flow.bytes = bytes;
  flow.remaining_bits = remaining_bits;
  flow.wireless_cap = wireless_cap;
  flow.cap_seq = gw.next_cap_seq;
  flow.client = client;
  const FlowBlock::Pos pos = gw.flows.push_back(flow);
  index_.store(id, gateway_id, pos);
  insert_sorted(gw, pos, wireless_cap, gw.next_cap_seq);
  ++gw.next_cap_seq;
  ++live_flows_;
  mark_dirty(gateway_id);
}

void IncrementalFluidNetwork::migrate_flow(FlowId id, int new_gateway, double new_wireless_cap) {
  util::require(new_wireless_cap > 0.0, "migrated flow needs a positive wireless cap");
  FlowIndex::Loc loc = index_.find(id);
  if (!loc.valid()) return;
  const int old_gateway = loc.gateway;
  if (old_gateway == new_gateway) {
    advance(old_gateway);
    // The flow may have completed (and left the index) during advance().
    loc = index_.find(id);
    if (loc.valid()) {
      // Re-seat the flow in the cap order under its original stamp: a cap
      // change must not alter its FIFO rank among equal caps.
      GatewayState& gw = gateway(old_gateway);
      const std::uint64_t seq = remove_sorted(gw, loc.pos);
      insert_sorted(gw, loc.pos, new_wireless_cap, seq);
      gw.flows[loc.pos].wireless_cap = new_wireless_cap;
    }
    mark_dirty(old_gateway);
    return;
  }
  advance(old_gateway);
  advance(new_gateway);
  // The flow may have completed during advance(old_gateway); the reference
  // returns without reallocating either gateway, so no dirty marks here.
  loc = index_.find(id);
  if (!loc.valid()) return;

  GatewayState& old_gw = gateway(loc.gateway);
  // The rate travels with the flow until the next water-fill, as in the
  // reference (unobservable there — both gateways re-waterfill — and kept
  // identical here for the same reason).
  FlowState moved = old_gw.flows[loc.pos];
  remove_sorted(old_gw, loc.pos);
  old_gw.flows.erase_at(loc.pos);
  for (SortedCap& entry : old_gw.sorted) {
    if (entry.pos > loc.pos) --entry.pos;
  }
  for (FlowBlock::Pos pos = loc.pos; pos < old_gw.flows.size(); ++pos) {
    index_.relocate(old_gw.flows[pos].id, loc.gateway, pos);
  }

  GatewayState& new_gw = gateway(new_gateway);
  moved.wireless_cap = new_wireless_cap;
  moved.cap_seq = new_gw.next_cap_seq;
  const FlowBlock::Pos new_pos = new_gw.flows.push_back(moved);
  insert_sorted(new_gw, new_pos, new_wireless_cap, new_gw.next_cap_seq);
  ++new_gw.next_cap_seq;
  index_.relocate(id, new_gateway, new_pos);
  mark_dirty(loc.gateway);
  mark_dirty(new_gateway);
}

void IncrementalFluidNetwork::set_gateway_serving(int gateway_id, bool serving) {
  GatewayState& gw = gateway(gateway_id);
  if (gw.serving == serving) return;
  advance(gateway_id);
  gw.serving = serving;
  mark_dirty(gateway_id);
}

bool IncrementalFluidNetwork::gateway_serving(int gateway_id) const {
  return gateway(gateway_id).serving;
}

int IncrementalFluidNetwork::active_flow_count(int gateway_id) const {
  return static_cast<int>(gateway(gateway_id).flows.size());
}

int IncrementalFluidNetwork::client_flow_count_at(int client, int gateway_id) const {
  int count = 0;
  for (const FlowState& flow : gateway(gateway_id).flows) {
    if (flow.client == client) ++count;
  }
  return count;
}

double IncrementalFluidNetwork::client_throughput_at(int client, int gateway_id) const {
  const_cast<IncrementalFluidNetwork*>(this)->flush_gateway(gateway_id);
  double total = 0.0;
  for (const FlowState& flow : gateway(gateway_id).flows) {
    if (flow.client == client) total += flow.rate;
  }
  return total;
}

double IncrementalFluidNetwork::gateway_throughput(int gateway_id) const {
  const_cast<IncrementalFluidNetwork*>(this)->flush_gateway(gateway_id);
  return gateway(gateway_id).throughput;
}

double IncrementalFluidNetwork::served_bits(int gateway_id, double t0, double t1) const {
  const_cast<IncrementalFluidNetwork*>(this)->flush_gateway(gateway_id);
  return gateway(gateway_id).served.integral(t0, t1);
}

double IncrementalFluidNetwork::load(int gateway_id, double window) const {
  util::require(window > 0.0, "load needs a positive window");
  const_cast<IncrementalFluidNetwork*>(this)->flush_gateway(gateway_id);
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

double IncrementalFluidNetwork::last_activity(int gateway_id) const {
  return gateway(gateway_id).last_activity;
}

void IncrementalFluidNetwork::advance(int gateway_id) {
  GatewayState& gw = gateway(gateway_id);
  const double now = simulator_->now();
  const double dt = now - gw.last_progress;
  if (dt > 0.0) {
    if (gw.throughput > 0.0) gw.last_activity = now;
    gw.last_progress = now;
  }
  if (gw.flows.empty()) return;
  // The reference engine also scans for completions when dt == 0 or every
  // rate is zero, but those scans are provably empty: between integrations
  // every live flow keeps remaining_bits > kEpsilonBits (advance() retires
  // anything at or below it, add_flow() completes such flows on the spot,
  // and no other path lowers remaining_bits). Skipping them is the single
  // biggest saving of the lazy engine — a same-instant burst of arrivals
  // pays for one scan, not one per arrival.
  if (dt <= 0.0 || gw.rates_zero) return;

  gw.finished.clear();
  const std::size_t n = gw.flows.size();
  for (std::size_t i = 0; i < n; ++i) {
    FlowState& flow = gw.flows[static_cast<FlowBlock::Pos>(i)];
    flow.remaining_bits -= flow.rate * dt;
    if (flow.remaining_bits <= kEpsilonBits) {
      flow.remaining_bits = 0.0;
      gw.finished.push_back(static_cast<FlowBlock::Pos>(i));
    }
  }
  if (gw.finished.empty()) return;

  // Snapshot the finished flows before compaction shifts positions, into a
  // detached buffer: a completion callback may re-enter advance().
  std::vector<CompletedFlow> completed;
  completed.swap(completed_scratch_);
  completed.clear();
  for (FlowBlock::Pos pos : gw.finished) {
    const FlowState& flow = gw.flows[pos];
    completed.push_back({flow.id, flow.client, gateway_id, flow.arrival_time, now, flow.bytes});
  }

  gw.flows.compact_removed(gw.finished, gw.remap);
  // Re-point the cap order and the id index at the shifted positions.
  std::size_t write = 0;
  for (std::size_t read = 0; read < gw.sorted.size(); ++read) {
    const FlowBlock::Pos np = gw.remap[gw.sorted[read].pos];
    if (np == FlowBlock::kRemoved) continue;
    gw.sorted[write] = gw.sorted[read];
    gw.sorted[write].pos = np;
    ++write;
  }
  gw.sorted.resize(write);
  for (FlowBlock::Pos pos = gw.finished.front();
       pos < static_cast<FlowBlock::Pos>(gw.flows.size()); ++pos) {
    index_.relocate(gw.flows[pos].id, gateway_id, pos);
  }
  live_flows_ -= static_cast<int>(completed.size());
  for (const CompletedFlow& f : completed) index_.erase(f.id);
  for (const CompletedFlow& f : completed) complete(f);
  // Hand the warm buffer back for the next advance().
  completed.clear();
  if (completed_scratch_.capacity() < completed.capacity()) completed.swap(completed_scratch_);
}

void IncrementalFluidNetwork::waterfill(int gateway_id) {
  ++waterfills_;
  GatewayState& gw = gateway(gateway_id);
  const double now = simulator_->now();

  if (!gw.serving || gw.flows.empty()) {
    if (gw.heap_pos != kNotInHeap) heap_remove(gateway_id);
    for (FlowState& flow : gw.flows) flow.rate = 0.0;
    gw.rates_zero = true;
    gw.throughput = 0.0;
    gw.served.set(now, 0.0);
    return;
  }

  // Water-fill over the caps kept in ascending order: a flow whose cap is
  // below the running equal share freezes at its cap and releases the
  // surplus. One pass, no sort, no allocation — the arithmetic and its
  // order are the reference engine's, bit for bit.
  double remaining = gw.backhaul;
  std::size_t left = gw.sorted.size();
  for (const SortedCap& entry : gw.sorted) {
    const double share = remaining / static_cast<double>(left);
    const double r = std::min(entry.cap, share);
    gw.flows[entry.pos].rate = r;
    remaining -= r;
    --left;
  }
  gw.rates_zero = false;

  // Totals accumulate in arrival order (block order), matching the
  // reference loop bit for bit.
  double total = 0.0;
  double next_completion = std::numeric_limits<double>::infinity();
  for (const FlowState& flow : gw.flows) {
    total += flow.rate;
    if (flow.rate > 0.0) {
      next_completion = std::min(next_completion, now + flow.remaining_bits / flow.rate);
    }
  }
  gw.throughput = total;
  gw.served.set(now, total);

  if (std::isfinite(next_completion)) {
    // Never schedule at (or below) the current instant: with a large clock
    // value a tiny remaining/rate quotient can round to zero, and a
    // same-instant event would re-enter this path forever.
    next_completion = std::max(next_completion, now + kMinEventDelay);
    if (gw.heap_pos != kNotInHeap) {
      // An unchanged completion instant keeps its stamp and costs nothing —
      // the analogue of the reference's skip-reschedule.
      if (next_completion != gw.next_completion) {
        gw.next_completion = next_completion;
        gw.heap_stamp = ++stamp_counter_;
        heap_update(gateway_id);
      }
    } else {
      gw.next_completion = next_completion;
      gw.heap_stamp = ++stamp_counter_;
      heap_insert(gateway_id);
    }
  } else if (gw.heap_pos != kNotInHeap) {
    heap_remove(gateway_id);
  }
}

void IncrementalFluidNetwork::fire() {
  simulator_->set_stream_head(*this, std::numeric_limits<double>::infinity(), head_rank());
  on_master_event();
}

void IncrementalFluidNetwork::on_master_event() {
  const double now = simulator_->now();
  while (!heap_.empty()) {
    const int g = heap_[0];
    if (gateways_[static_cast<std::size_t>(g)].next_completion > now) break;
    heap_remove(g);
    advance(g);
    // Dirty without request_flush: the inline flush below settles this
    // instant (re-entrant mutations from completion callbacks still raise
    // the barrier themselves, which then finds nothing left to do).
    GatewayState& gw = gateways_[static_cast<std::size_t>(g)];
    if (!gw.dirty) {
      gw.dirty = true;
      dirty_list_.push_back(g);
    }
  }
  // Settle immediately — the reference reallocates at exactly this point,
  // and the clock cannot move before this instant's flush anyway. Inline,
  // it saves the scheduler an extra barrier pass per completion batch and
  // re-arms the master head at the new heap minimum.
  flush();
}

void IncrementalFluidNetwork::arm_master() {
  const double t = heap_.empty()
                       ? std::numeric_limits<double>::infinity()
                       : gateways_[static_cast<std::size_t>(heap_[0])].next_completion;
  // A new time claims a fresh rank, exactly where a tracking event would
  // have been scheduled (first arm after a fire or a clear) or rescheduled;
  // an unchanged time keeps its rank.
  if (t == head_time()) return;
  simulator_->set_stream_head(
      *this, t, std::isfinite(t) ? simulator_->allocate_sequence() : head_rank());
}

bool IncrementalFluidNetwork::heap_less(int a, int b) const {
  const GatewayState& ga = gateways_[static_cast<std::size_t>(a)];
  const GatewayState& gb = gateways_[static_cast<std::size_t>(b)];
  if (ga.next_completion != gb.next_completion) return ga.next_completion < gb.next_completion;
  return ga.heap_stamp < gb.heap_stamp;
}

void IncrementalFluidNetwork::heap_insert(int g) {
  gateways_[static_cast<std::size_t>(g)].heap_pos = heap_.size();
  heap_.push_back(g);
  heap_sift_up(heap_.size() - 1);
}

void IncrementalFluidNetwork::heap_update(int g) {
  heap_sift_up(gateways_[static_cast<std::size_t>(g)].heap_pos);
  heap_sift_down(gateways_[static_cast<std::size_t>(g)].heap_pos);
}

void IncrementalFluidNetwork::heap_remove(int g) {
  GatewayState& gw = gateways_[static_cast<std::size_t>(g)];
  const std::size_t pos = gw.heap_pos;
  gw.heap_pos = kNotInHeap;
  const int last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail slot
  heap_[pos] = last;
  gateways_[static_cast<std::size_t>(last)].heap_pos = pos;
  heap_sift_up(pos);
  heap_sift_down(gateways_[static_cast<std::size_t>(last)].heap_pos);
}

void IncrementalFluidNetwork::heap_sift_up(std::size_t pos) {
  const int g = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!heap_less(g, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    gateways_[static_cast<std::size_t>(heap_[pos])].heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = g;
  gateways_[static_cast<std::size_t>(g)].heap_pos = pos;
}

void IncrementalFluidNetwork::heap_sift_down(std::size_t pos) {
  const int g = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[child + 1], heap_[child])) ++child;
    if (!heap_less(heap_[child], g)) break;
    heap_[pos] = heap_[child];
    gateways_[static_cast<std::size_t>(heap_[pos])].heap_pos = pos;
    pos = child;
  }
  heap_[pos] = g;
  gateways_[static_cast<std::size_t>(g)].heap_pos = pos;
}

}  // namespace insomnia::flow
