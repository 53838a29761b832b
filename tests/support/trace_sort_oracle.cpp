#include "support/trace_sort_oracle.h"

#include <algorithm>
#include <vector>

namespace insomnia::trace {

FlowTrace generate_by_sorting(const SyntheticCrawdadGenerator& generator, sim::Random& rng) {
  const FlowChunks emitted = generator.emit(rng);
  FlowTrace flows;
  for (const std::vector<FlowRecord>& chunk : emitted.chunks) {
    flows.insert(flows.end(), chunk.begin(), chunk.end());
  }
  std::sort(flows.begin(), flows.end(),
            [](const FlowRecord& a, const FlowRecord& b) { return a.start_time < b.start_time; });
  return flows;
}

}  // namespace insomnia::trace
