#include "support/fluid_engines.h"

#include "flow/incremental_network.h"
#include "support/reference_network.h"

namespace insomnia::flow {

const char* test_engine_name(TestEngine engine) {
  return engine == TestEngine::kReference ? "reference" : "incremental";
}

std::unique_ptr<FluidNetwork> make_test_engine(TestEngine engine, sim::Simulator& simulator,
                                               std::vector<double> backhaul_rates) {
  if (engine == TestEngine::kReference) {
    return make_reference_network(simulator, std::move(backhaul_rates));
  }
  return std::make_unique<IncrementalFluidNetwork>(simulator, std::move(backhaul_rates));
}

std::unique_ptr<FluidNetwork> make_reference_network(sim::Simulator& simulator,
                                                     std::vector<double> backhaul_rates) {
  return std::make_unique<ReferenceFluidNetwork>(simulator, std::move(backhaul_rates));
}

}  // namespace insomnia::flow
