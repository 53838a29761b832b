// Per-flow state for the incremental fluid engine: one record per flow, in
// per-gateway blocks.
//
// A gateway holds few live flows at a time (1.6 on average in a
// paper-default day), so the engine's scans — progress integration, the
// water-fill and the post-water-fill total/next-completion pass — are
// short, and what costs is bookkeeping per flow: appending, compacting
// and moving it. One 64-byte record per flow makes each of those one
// write of one cache line, where parallel arrays paid it once per field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace insomnia::flow {

/// One live flow at its gateway.
struct FlowState {
  std::uint64_t id = 0;
  double arrival_time = 0.0;
  double bytes = 0.0;
  double remaining_bits = 0.0;
  double wireless_cap = 0.0;
  double rate = 0.0;
  std::uint64_t cap_seq = 0;  ///< per-gateway FIFO tie-break stamp
  int client = 0;
};

/// One gateway's live flows, kept in arrival order (the order the
/// reference engine walks its per-gateway index list in, so every
/// floating-point accumulation visits flows identically).
class FlowBlock {
 public:
  /// Position of a flow within the block; positions shift left on
  /// compaction (see compact_removed) and are therefore only stable between
  /// completions.
  using Pos = std::uint32_t;
  static constexpr Pos kRemoved = UINT32_MAX;

  std::size_t size() const { return flows_.size(); }
  bool empty() const { return flows_.empty(); }

  FlowState& operator[](Pos pos) { return flows_[pos]; }
  const FlowState& operator[](Pos pos) const { return flows_[pos]; }
  FlowState* begin() { return flows_.data(); }
  FlowState* end() { return flows_.data() + flows_.size(); }
  const FlowState* begin() const { return flows_.data(); }
  const FlowState* end() const { return flows_.data() + flows_.size(); }

  /// Appends a flow; returns its position.
  Pos push_back(const FlowState& flow) {
    flows_.push_back(flow);
    return static_cast<Pos>(flows_.size() - 1);
  }

  /// Removes the (ascending) positions in `removed`, shifting survivors
  /// left while preserving arrival order. Fills `remap` (resized to the old
  /// size) with each old position's new position, or kRemoved.
  void compact_removed(const std::vector<Pos>& removed, std::vector<Pos>& remap);

  /// Removes the single position `pos` (migration), preserving order.
  /// Survivors past `pos` shift left by one.
  void erase_at(Pos pos);

 private:
  std::vector<FlowState> flows_;
};

/// FlowId -> (gateway, position) map. Ids are replayed densely and mostly
/// in order, so the map is a flat window over ids [base, base + size) that
/// slides up past retired ids: it stays as wide as the span of live ids
/// (hot in cache), not one slot per flow of the day. Ids below the window,
/// or so far above it that covering them would be out of proportion to
/// the flows seen (a sparse 10^12 id), go to a hash map instead.
class FlowIndex {
 public:
  struct Loc {
    int gateway = -1;
    FlowBlock::Pos pos = 0;
    bool valid() const { return gateway >= 0; }
  };

  /// Location of `id`, or an invalid Loc if absent.
  Loc find(std::uint64_t id) const;

  /// Inserts a mapping for a new flow (id must be absent).
  void store(std::uint64_t id, int gateway, FlowBlock::Pos pos);

  /// Updates the location of an id that is already present.
  void relocate(std::uint64_t id, int gateway, FlowBlock::Pos pos);

  void erase(std::uint64_t id);

 private:
  static constexpr std::uint64_t kEmpty = UINT64_MAX;
  static std::uint64_t pack(int gateway, FlowBlock::Pos pos) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(gateway)) << 32) | pos;
  }

  /// The window slot of `id`, or nullptr if `id` lies outside the window.
  std::uint64_t* slot(std::uint64_t id) {
    const std::uint64_t offset = id - base_;  // wraps past size() below base_
    return offset < window_.size() ? &window_[offset] : nullptr;
  }
  const std::uint64_t* slot(std::uint64_t id) const {
    return const_cast<FlowIndex*>(this)->slot(id);
  }

  /// Slides and/or widens the window so it covers `id`; false when `id`
  /// belongs in the overflow map instead.
  bool make_room(std::uint64_t id);

  std::vector<std::uint64_t> window_;  ///< packed Loc or kEmpty, id base_ + i at i
  std::uint64_t base_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> overflow_;  // outlier ids
  std::uint64_t stored_total_ = 0;  ///< flows ever stored; bounds the window
};

}  // namespace insomnia::flow
