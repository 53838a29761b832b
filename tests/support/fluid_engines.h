// Test-side engine selection. Production builds one fluid engine
// (flow::IncrementalFluidNetwork); the suites that hold every behaviour on
// both engines pick between it and the reference oracle through this enum,
// which no production target sees.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "flow/fluid_network.h"
#include "sim/simulator.h"

namespace insomnia::flow {

/// The engines a parameterised suite runs against.
enum class TestEngine {
  kReference,    ///< exact eager engine, the oracle
  kIncremental,  ///< the production engine
};

/// A CompletionSink forwarding to a callable, so a test can log, count or
/// re-enter the network from a completion in a lambda.
class FunctionSink final : public CompletionSink {
 public:
  explicit FunctionSink(std::function<void(const CompletedFlow&)> fn) : fn_(std::move(fn)) {}
  void on_flow_complete(const CompletedFlow& flow) override { fn_(flow); }

 private:
  std::function<void(const CompletedFlow&)> fn_;
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
