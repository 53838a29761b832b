#include "flow/flow_state.h"

#include <algorithm>

#include "util/error.h"

namespace insomnia::flow {

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
    if (write != read) flows_[write] = flows_[read];
    ++write;
  }
  flows_.resize(write);
}

void FlowBlock::erase_at(Pos pos) {
  util::require_state(pos < size(), "FlowBlock::erase_at out of range");
  flows_.erase(flows_.begin() + pos);
}

bool FlowIndex::make_room(std::uint64_t id) {
  // The window may cover ids up to base_ + ceiling: proportionate to the
  // flows actually stored, so a far outlier (sparse trace id) never
  // balloons it, nor drags it away from the dense ids.
  const std::uint64_t ceiling = std::max<std::uint64_t>(1024, 4 * (stored_total_ + 1));
  if (id < base_ || id - base_ >= ceiling) return false;
  // Leading retired slots go back to the free end once they are at least
  // half the window: the shift then moves at most half of it, and buys as
  // many stores before the next one (amortized O(1) per id). Fewer than
  // half, and the window doubles instead.
  std::size_t retired = 0;
  while (retired < window_.size() && window_[retired] == kEmpty) ++retired;
  if (retired == window_.size()) {
    base_ = id;  // nothing live in the window: restart it at `id`
  } else if (2 * retired >= window_.size()) {
    std::copy(window_.begin() + static_cast<std::ptrdiff_t>(retired), window_.end(),
              window_.begin());
    std::fill(window_.end() - static_cast<std::ptrdiff_t>(retired), window_.end(), kEmpty);
    base_ += retired;
  }
  const std::uint64_t span = id - base_ + 1;
  if (span > window_.size()) {
    window_.resize(std::max<std::size_t>({span, 2 * window_.size(), 1024}), kEmpty);
  }
  return true;
}

FlowIndex::Loc FlowIndex::find(std::uint64_t id) const {
  std::uint64_t packed = kEmpty;
  // An id that went to the overflow map may later fall inside the window
  // (it slid or grew past it), so an empty slot must fall through to the
  // map (cheap: the map is almost always empty).
  const std::uint64_t* entry = slot(id);
  if (entry != nullptr && *entry != kEmpty) {
    packed = *entry;
  } else if (!overflow_.empty()) {
    const auto it = overflow_.find(id);
    if (it != overflow_.end()) packed = it->second;
  }
  if (packed == kEmpty) return {};
  return {static_cast<int>(packed >> 32), static_cast<FlowBlock::Pos>(packed & 0xffffffffu)};
}

void FlowIndex::store(std::uint64_t id, int gateway, FlowBlock::Pos pos) {
  ++stored_total_;
  if (slot(id) != nullptr || make_room(id)) {
    *slot(id) = pack(gateway, pos);
  } else {
    overflow_[id] = pack(gateway, pos);
  }
}

void FlowIndex::relocate(std::uint64_t id, int gateway, FlowBlock::Pos pos) {
  std::uint64_t* entry = slot(id);
  if (entry != nullptr && *entry != kEmpty) {
    *entry = pack(gateway, pos);
  } else {
    const auto it = overflow_.find(id);
    util::require_state(it != overflow_.end(), "FlowIndex::relocate of unknown id");
    it->second = pack(gateway, pos);
  }
}

void FlowIndex::erase(std::uint64_t id) {
  // Mirror find(): the mapping lives in the window or, for an id that was
  // an outlier when stored, in the overflow map — even if the window has
  // since moved over it.
  std::uint64_t* entry = slot(id);
  if (entry != nullptr && *entry != kEmpty) {
    *entry = kEmpty;
  } else {
    overflow_.erase(id);
  }
}

}  // namespace insomnia::flow
