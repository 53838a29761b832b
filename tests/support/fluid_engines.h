// Test-side engine selection. Production builds one fluid engine
// (flow::IncrementalFluidNetwork); the suites that hold every behaviour on
// both engines pick between it and the reference oracle through this enum,
// which no production target sees.
#pragma once

#include <memory>
#include <vector>

#include "flow/fluid_network.h"
#include "sim/simulator.h"

namespace insomnia::flow {

/// The engines a parameterised suite runs against.
enum class TestEngine {
  kReference,    ///< exact eager engine, the oracle
  kIncremental,  ///< the production engine
};

/// "reference" / "incremental" (gtest parameter names).
const char* test_engine_name(TestEngine engine);

/// Builds `engine` over `backhaul_rates` (bits/s per gateway).
std::unique_ptr<FluidNetwork> make_test_engine(TestEngine engine, sim::Simulator& simulator,
                                               std::vector<double> backhaul_rates);

/// The reference engine in core::AccessRuntime::NetworkFactory form.
std::unique_ptr<FluidNetwork> make_reference_network(sim::Simulator& simulator,
                                                     std::vector<double> backhaul_rates);

}  // namespace insomnia::flow
