// Test-side oracle for the fluid engines' water-fill: max-min fair rate
// allocation of one shared link among flows with individual rate caps (the
// wireless hop of each client), computed from scratch with a sort. Both
// engines keep their caps sorted incrementally and must agree with it
// (tests/test_flow_maxmin_properties.cpp). Only the test_* executables link
// it.
#pragma once

#include <vector>

namespace insomnia::flow {

/// Computes the max-min fair allocation of `capacity` among flows whose
/// individual ceilings are `caps` (each >= 0). Returns one rate per flow,
/// in input order.
///
/// Properties (tested): rates[i] <= caps[i]; sum(rates) <= capacity; if
/// sum(caps) >= capacity the link is fully used; uncapped flows share
/// equally; no flow can gain rate without another losing.
std::vector<double> max_min_allocate(double capacity, const std::vector<double>& caps);

}  // namespace insomnia::flow
