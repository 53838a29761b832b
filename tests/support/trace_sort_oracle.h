// Test-side oracle for synthetic trace ordering. Production orders a
// generated day with one stable counting pass (trace::order_by_start_time);
// the oracle is the materialise-and-sort path it replaced: the generator's
// own emission copied into one vector, then std::sort by start time. Only
// the test_* executables link it.
#pragma once

#include "sim/random.h"
#include "trace/records.h"
#include "trace/synthetic_crawdad.h"

namespace insomnia::trace {

/// generator.emit(rng), flattened in emission order and std::sort-ed by
/// start_time. Equal start times land in an unspecified order, so compare it
/// with generate() only on traces without ties.
FlowTrace generate_by_sorting(const SyntheticCrawdadGenerator& generator, sim::Random& rng);

}  // namespace insomnia::trace
