// Structure-of-arrays per-flow state for the incremental fluid engine.
//
// The engine's two hot loops — progress integration (remaining -= rate*dt)
// and the post-water-fill total/next-completion scan — touch one or two
// fields of every live flow at a gateway. Keeping each field in its own
// contiguous array makes those loops cache-dense and trivially
// vectorizable, where the reference engine chases FlowState records spread
// across a global arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace insomnia::flow {

/// One gateway's live flows as parallel arrays, kept in arrival order (the
/// order the reference engine walks its per-gateway index list in, so every
/// floating-point accumulation visits flows identically).
class FlowBlock {
 public:
  /// Position of a flow within the block; positions shift left on
  /// compaction (see compact_removed) and are therefore only stable between
  /// completions.
  using Pos = std::uint32_t;
  static constexpr Pos kRemoved = UINT32_MAX;

  std::size_t size() const { return id.size(); }
  bool empty() const { return id.empty(); }

  /// Appends a flow; returns its position.
  Pos push_back(std::uint64_t flow_id, int flow_client, double arrival, double flow_bytes,
                double remaining, double cap, std::uint64_t seq);

  /// Removes the (ascending) positions in `removed`, shifting survivors
  /// left while preserving arrival order. Fills `remap` (resized to the old
  /// size) with each old position's new position, or kRemoved.
  void compact_removed(const std::vector<Pos>& removed, std::vector<Pos>& remap);

  /// Removes the single position `pos` (migration), preserving order.
  /// Survivors past `pos` shift left by one.
  void erase_at(Pos pos);

  void reserve(std::size_t n);

  // Parallel arrays, index = position in arrival order.
  std::vector<std::uint64_t> id;
  std::vector<int> client;
  std::vector<double> arrival_time;
  std::vector<double> bytes;
  std::vector<double> remaining_bits;
  std::vector<double> wireless_cap;
  std::vector<double> rate;
  std::vector<std::uint64_t> cap_seq;  ///< per-gateway FIFO tie-break stamp
};

/// FlowId -> (gateway, position) map with the same dense/overflow split as
/// the reference engine: trace replays use dense ids, which live in a flat
/// vector; a far-outlier id (sparse 10^12) must not balloon it, so outliers
/// go to a hash map.
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

  /// Sizes the dense vector to hold ids [0, flow_count) up front.
  void reserve(std::size_t flow_count);

 private:
  static constexpr std::uint64_t kEmpty = UINT64_MAX;
  static std::uint64_t pack(int gateway, FlowBlock::Pos pos) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(gateway)) << 32) | pos;
  }

  /// True when growing the dense vector to hold `id` stays proportionate to
  /// the number of flows actually seen.
  bool dense_id(std::uint64_t id) const;

  std::vector<std::uint64_t> dense_;                       // packed Loc or kEmpty
  std::unordered_map<std::uint64_t, std::uint64_t> overflow_;  // sparse outlier ids
  std::uint64_t stored_total_ = 0;  ///< flows ever stored; drives the dense ceiling
};

}  // namespace insomnia::flow
