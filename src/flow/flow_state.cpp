#include "flow/flow_state.h"

#include <algorithm>

#include "util/error.h"

namespace insomnia::flow {

FlowBlock::Pos FlowBlock::push_back(std::uint64_t flow_id, int flow_client, double arrival,
                                    double flow_bytes, double remaining, double cap,
                                    std::uint64_t seq) {
  const Pos pos = static_cast<Pos>(id.size());
  id.push_back(flow_id);
  client.push_back(flow_client);
  arrival_time.push_back(arrival);
  bytes.push_back(flow_bytes);
  remaining_bits.push_back(remaining);
  wireless_cap.push_back(cap);
  rate.push_back(0.0);
  cap_seq.push_back(seq);
  return pos;
}

void FlowBlock::compact_removed(const std::vector<Pos>& removed, std::vector<Pos>& remap) {
  const std::size_t n = size();
  remap.resize(n);
  std::size_t write = 0;
  std::size_t next_removed = 0;
  for (std::size_t read = 0; read < n; ++read) {
    if (next_removed < removed.size() && removed[next_removed] == read) {
      remap[read] = kRemoved;
      ++next_removed;
      continue;
    }
    remap[read] = static_cast<Pos>(write);
    if (write != read) {
      id[write] = id[read];
      client[write] = client[read];
      arrival_time[write] = arrival_time[read];
      bytes[write] = bytes[read];
      remaining_bits[write] = remaining_bits[read];
      wireless_cap[write] = wireless_cap[read];
      rate[write] = rate[read];
      cap_seq[write] = cap_seq[read];
    }
    ++write;
  }
  id.resize(write);
  client.resize(write);
  arrival_time.resize(write);
  bytes.resize(write);
  remaining_bits.resize(write);
  wireless_cap.resize(write);
  rate.resize(write);
  cap_seq.resize(write);
}

void FlowBlock::erase_at(Pos pos) {
  util::require_state(pos < size(), "FlowBlock::erase_at out of range");
  id.erase(id.begin() + pos);
  client.erase(client.begin() + pos);
  arrival_time.erase(arrival_time.begin() + pos);
  bytes.erase(bytes.begin() + pos);
  remaining_bits.erase(remaining_bits.begin() + pos);
  wireless_cap.erase(wireless_cap.begin() + pos);
  rate.erase(rate.begin() + pos);
  cap_seq.erase(cap_seq.begin() + pos);
}

void FlowBlock::reserve(std::size_t n) {
  id.reserve(n);
  client.reserve(n);
  arrival_time.reserve(n);
  bytes.reserve(n);
  remaining_bits.reserve(n);
  wireless_cap.reserve(n);
  rate.reserve(n);
  cap_seq.reserve(n);
}

bool FlowIndex::dense_id(std::uint64_t id) const {
  // Growing the flat vector is fine while it stays proportionate to the
  // flows actually stored; a far outlier (sparse trace id) must not make it
  // balloon. Mirrors the reference engine's heuristic exactly.
  if (id < dense_.size()) return true;
  const std::uint64_t ceiling = std::max<std::uint64_t>(1024, 4 * (stored_total_ + 1));
  return id < ceiling;
}

FlowIndex::Loc FlowIndex::find(std::uint64_t id) const {
  std::uint64_t packed = kEmpty;
  // The dense vector may later grow past an id that went to the overflow
  // map while it was still an outlier, so an empty dense entry must fall
  // through to the map (cheap: the map is almost always empty).
  if (id < dense_.size() && dense_[id] != kEmpty) {
    packed = dense_[id];
  } else if (!overflow_.empty()) {
    const auto it = overflow_.find(id);
    if (it != overflow_.end()) packed = it->second;
  }
  if (packed == kEmpty) return {};
  return {static_cast<int>(packed >> 32), static_cast<FlowBlock::Pos>(packed & 0xffffffffu)};
}

void FlowIndex::store(std::uint64_t id, int gateway, FlowBlock::Pos pos) {
  ++stored_total_;
  if (dense_id(id)) {
    // Geometric growth: a live day has no flow count to reserve() up front,
    // and growing to exactly id + 1 would refill the tail once per arrival.
    if (dense_.size() <= id) {
      dense_.resize(std::max<std::size_t>(id + 1, 2 * dense_.size()), kEmpty);
    }
    dense_[id] = pack(gateway, pos);
  } else {
    overflow_[id] = pack(gateway, pos);
  }
}

void FlowIndex::relocate(std::uint64_t id, int gateway, FlowBlock::Pos pos) {
  if (id < dense_.size() && dense_[id] != kEmpty) {
    dense_[id] = pack(gateway, pos);
  } else {
    const auto it = overflow_.find(id);
    util::require_state(it != overflow_.end(), "FlowIndex::relocate of unknown id");
    it->second = pack(gateway, pos);
  }
}

void FlowIndex::erase(std::uint64_t id) {
  // Mirror find(): the mapping lives in the dense vector or, for an id that
  // was an outlier when stored, in the overflow map — even if the vector
  // has since grown past it.
  if (id < dense_.size() && dense_[id] != kEmpty) {
    dense_[id] = kEmpty;
  } else {
    overflow_.erase(id);
  }
}

void FlowIndex::reserve(std::size_t flow_count) {
  // Pre-size rather than reserve: store() then finds every id below
  // flow_count already in range instead of growing the vector per flow.
  if (dense_.size() < flow_count) dense_.resize(flow_count, kEmpty);
}

}  // namespace insomnia::flow
