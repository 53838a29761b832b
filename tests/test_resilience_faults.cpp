#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "resilience/fault_plan.h"
#include "trace/trace_io.h"
#include "util/error.h"

namespace insomnia::resilience {
namespace {

/// RAII guard: whatever a test sets as the global plan is undone on exit,
/// so fault state can never leak between tests.
class GlobalPlanGuard {
 public:
  GlobalPlanGuard() : saved_(global_fault_plan()) {}
  ~GlobalPlanGuard() { set_global_fault_plan(saved_); }

 private:
  FaultPlan saved_;
};

TEST(FaultPlan, DefaultPlanIsInert) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.any());
  EXPECT_EQ(plan.summary(), "none");
}

TEST(FaultPlan, ParsesTheFullGrammar) {
  const FaultPlan plan = parse_fault_plan(
      "shard-throw=0.01, child-kill=0.05 ,ckpt-torn=1,slow-shard=0.02:500ms,"
      "ckpt-short=0.5,ckpt-flip=0.25,trace-garble=0.125,seed=99");
  EXPECT_DOUBLE_EQ(plan.shard_throw, 0.01);
  EXPECT_DOUBLE_EQ(plan.child_kill, 0.05);
  EXPECT_DOUBLE_EQ(plan.ckpt_torn, 1.0);
  EXPECT_DOUBLE_EQ(plan.slow_shard, 0.02);
  EXPECT_DOUBLE_EQ(plan.slow_shard_ms, 500.0);
  EXPECT_DOUBLE_EQ(plan.ckpt_short, 0.5);
  EXPECT_DOUBLE_EQ(plan.ckpt_flip, 0.25);
  EXPECT_DOUBLE_EQ(plan.trace_garble, 0.125);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_TRUE(plan.any());
}

TEST(FaultPlan, SlowShardDurationAcceptsSecondsAndDefaults) {
  EXPECT_DOUBLE_EQ(parse_fault_plan("slow-shard=0.1:2s").slow_shard_ms, 2000.0);
  EXPECT_DOUBLE_EQ(parse_fault_plan("slow-shard=0.1:75").slow_shard_ms, 75.0);
  // Probability without a duration keeps the default.
  EXPECT_DOUBLE_EQ(parse_fault_plan("slow-shard=0.1").slow_shard_ms,
                   FaultPlan{}.slow_shard_ms);
}

TEST(FaultPlan, EmptySpecParsesToNoFaults) {
  EXPECT_FALSE(parse_fault_plan("").any());
  EXPECT_FALSE(parse_fault_plan("   ").any());
}

TEST(FaultPlan, RejectsUnknownKeys) {
  EXPECT_THROW(parse_fault_plan("shard-explode=0.5"), util::InvalidArgument);
  try {
    parse_fault_plan("shard-explode=0.5");
  } catch (const util::InvalidArgument& error) {
    // The error must list the valid keys — chaos specs are typed by hand.
    EXPECT_NE(std::string(error.what()).find("shard-throw"), std::string::npos);
  }
}

TEST(FaultPlan, RejectsMalformedEntries) {
  EXPECT_THROW(parse_fault_plan("shard-throw"), util::InvalidArgument);
  EXPECT_THROW(parse_fault_plan("=0.5"), util::InvalidArgument);
  EXPECT_THROW(parse_fault_plan("shard-throw=1.5"), util::InvalidArgument);
  EXPECT_THROW(parse_fault_plan("shard-throw=-0.1"), util::InvalidArgument);
  EXPECT_THROW(parse_fault_plan("shard-throw=lots"), util::InvalidArgument);
  EXPECT_THROW(parse_fault_plan("slow-shard=0.1:-5ms"), util::InvalidArgument);
  EXPECT_THROW(parse_fault_plan("seed=notanumber"), util::InvalidArgument);
}

TEST(FaultPlan, RejectsSlowShardDurationsThatOverflow) {
  // Finite as written, infinite once scaled: a sleep_for(inf) is a
  // float-to-integer overflow, not a slow shard.
  EXPECT_THROW(parse_fault_plan("slow-shard=0.5:1e306s"), util::InvalidArgument);
  EXPECT_THROW(parse_fault_plan("slow-shard=0.5:1e307m"), util::InvalidArgument);
  EXPECT_THROW(parse_fault_plan("slow-shard=0.5:1e306h"), util::InvalidArgument);
  // Finite in milliseconds but past the duration ceiling: sleep_for would
  // overflow its integer ticks and return at once, so the slowdown would
  // silently vanish.
  EXPECT_THROW(parse_fault_plan("slow-shard=0.5:1e300s"), util::InvalidArgument);
  EXPECT_THROW(parse_fault_plan("slow-shard=0.5:1e300"), util::InvalidArgument);
  EXPECT_THROW(parse_fault_plan("slow-shard=0.5:8761h"), util::InvalidArgument);
  EXPECT_DOUBLE_EQ(parse_fault_plan("slow-shard=0.5:8760h").slow_shard_ms, 8760.0 * 3600e3);
}

TEST(FaultPlan, SummaryRoundTripsActiveEntries) {
  const FaultPlan plan = parse_fault_plan("shard-throw=0.25,slow-shard=0.5:100ms");
  EXPECT_EQ(plan.summary(), "shard-throw=0.25, slow-shard=0.50:100ms");
}

TEST(FaultFires, IsAPureFunctionOfItsKey) {
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(fault_fires(0.5, 42, 7, kShardThrowSalt, 0),
              fault_fires(0.5, 42, 7, kShardThrowSalt, 0));
  }
}

TEST(FaultFires, EdgeProbabilitiesShortCircuit) {
  for (std::uint64_t stream = 0; stream < 50; ++stream) {
    EXPECT_FALSE(fault_fires(0.0, 42, stream, kShardThrowSalt, 0));
    EXPECT_TRUE(fault_fires(1.0, 42, stream, kShardThrowSalt, 0));
  }
}

TEST(FaultFires, FrequencyTracksProbability) {
  int fired = 0;
  for (std::uint64_t stream = 0; stream < 2000; ++stream) {
    if (fault_fires(0.3, 42, stream, kShardThrowSalt, 0)) ++fired;
  }
  EXPECT_NEAR(fired / 2000.0, 0.3, 0.04);
}

TEST(FaultFires, DecisionsVaryAcrossSaltStreamAndAttempt) {
  // Different key components must decorrelate: over many streams the
  // decisions under two salts (or two attempts) cannot be identical.
  int salt_diff = 0;
  int attempt_diff = 0;
  for (std::uint64_t stream = 0; stream < 500; ++stream) {
    if (fault_fires(0.5, 42, stream, kShardThrowSalt, 0) !=
        fault_fires(0.5, 42, stream, kSlowShardSalt, 0)) {
      ++salt_diff;
    }
    if (fault_fires(0.5, 42, stream, kShardThrowSalt, 0) !=
        fault_fires(0.5, 42, stream, kShardThrowSalt, 1)) {
      ++attempt_diff;
    }
  }
  EXPECT_GT(salt_diff, 100);
  EXPECT_GT(attempt_diff, 100);
}

TEST(GlobalFaultPlan, SetAndRestore) {
  GlobalPlanGuard guard;
  FaultPlan plan;
  plan.shard_throw = 0.75;
  set_global_fault_plan(plan);
  EXPECT_DOUBLE_EQ(global_fault_plan().shard_throw, 0.75);
  set_global_fault_plan(FaultPlan{});
  EXPECT_FALSE(global_fault_plan().any());
}

TEST(TraceGarble, InjectsDeterministicParseFailures) {
  GlobalPlanGuard guard;
  FaultPlan plan;
  plan.trace_garble = 1.0;  // every row
  plan.seed = 5;
  set_global_fault_plan(plan);

  const std::string csv = "start_time,client,bytes\n0.0,1,100\n1.0,2,200\n";
  std::istringstream in(csv);
  try {
    trace::read_flow_trace(in);
    FAIL() << "expected an injected trace fault";
  } catch (const util::InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("injected trace fault"),
              std::string::npos);
  }

  // And with the plan cleared the same bytes parse fine.
  set_global_fault_plan(FaultPlan{});
  std::istringstream again(csv);
  EXPECT_EQ(trace::read_flow_trace(again).size(), 2u);
}

TEST(InjectedFault, IsARuntimeError) {
  // Injected faults must flow through the generic retry/quarantine path,
  // never the precondition (InvalidArgument) fast-abort path.
  const InjectedFault fault("boom");
  const std::runtime_error* base = &fault;
  EXPECT_STREQ(base->what(), "boom");
}

}  // namespace
}  // namespace insomnia::resilience
