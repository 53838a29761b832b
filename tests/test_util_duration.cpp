// The shared duration grammar (util/duration.h): suffix handling, the
// bare-number unit parameter, and the rejection cases every call site
// (fault-plan slow-shard, INSOMNIA_HEARTBEAT, livectl --tick-ms/--duration)
// relies on to fail loudly instead of guessing.
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "obs/heartbeat.h"
#include "util/duration.h"

namespace insomnia::util {
namespace {

TEST(ParseDuration, SuffixesConvertToSeconds) {
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("500ms"), 0.5);
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("2s"), 2.0);
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("1.5m"), 90.0);
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("1h"), 3600.0);
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("0.25h"), 900.0);
}

TEST(ParseDuration, BareNumberTakesTheCallSiteUnit) {
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("30", DurationUnit::kSeconds), 30.0);
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("30", DurationUnit::kMilliseconds), 0.03);
  // An explicit suffix wins regardless of the bare unit.
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("2s", DurationUnit::kMilliseconds), 2.0);
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("250ms", DurationUnit::kSeconds), 0.25);
}

TEST(ParseDuration, TrimsSurroundingWhitespace) {
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("  2s  "), 2.0);
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("\t750ms\n", DurationUnit::kSeconds), 0.75);
}

TEST(ParseDuration, ZeroIsAllowedCallersDecideOnPositivity) {
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("0"), 0.0);
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("0ms"), 0.0);
}

TEST(ParseDuration, RejectsMalformedInput) {
  EXPECT_FALSE(parse_duration_seconds("").has_value());
  EXPECT_FALSE(parse_duration_seconds("   ").has_value());
  EXPECT_FALSE(parse_duration_seconds("abc").has_value());
  EXPECT_FALSE(parse_duration_seconds("-5s").has_value());
  EXPECT_FALSE(parse_duration_seconds("2sx").has_value());   // trailing junk
  EXPECT_FALSE(parse_duration_seconds("2 s").has_value());   // inner space
  EXPECT_FALSE(parse_duration_seconds("ms").has_value());    // suffix only
  EXPECT_FALSE(parse_duration_seconds("1d").has_value());    // unknown unit
  EXPECT_FALSE(parse_duration_seconds("nan").has_value());
  EXPECT_FALSE(parse_duration_seconds("inf").has_value());
  // Finite numbers whose conversion to seconds overflows.
  EXPECT_FALSE(parse_duration_seconds("1e307m").has_value());
  EXPECT_FALSE(parse_duration_seconds("1e306h").has_value());
  // Finite in seconds but past the 365-day ceiling: a clock's integer ticks
  // would overflow where the value is slept on or waited for.
  EXPECT_FALSE(parse_duration_seconds("1e306s").has_value());
  EXPECT_FALSE(parse_duration_seconds("1e300s").has_value());
  EXPECT_FALSE(parse_duration_seconds("8761h").has_value());
  EXPECT_FALSE(parse_duration_seconds("31536000001ms").has_value());
  EXPECT_FALSE(parse_duration_seconds("31536001", DurationUnit::kSeconds).has_value());
}

TEST(ParseDuration, AcceptsUpToTheCeiling) {
  EXPECT_DOUBLE_EQ(kMaxDurationSeconds, 365.0 * 86400.0);
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("8760h"), kMaxDurationSeconds);
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("31536000s"), kMaxDurationSeconds);
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("31536000000", DurationUnit::kMilliseconds),
                   kMaxDurationSeconds);
  // A long-running daemon's wall budget of a few days stays expressible.
  EXPECT_DOUBLE_EQ(*parse_duration_seconds("72h"), 3.0 * 86400.0);
}

TEST(ParseDuration, GrammarHelpNamesTheAcceptedForms) {
  const std::string help = duration_grammar_help();
  EXPECT_NE(help.find("365 days"), std::string::npos) << help;
  EXPECT_NE(help.find("ms"), std::string::npos) << help;
  EXPECT_NE(help.find("s"), std::string::npos) << help;
}

/// Sets INSOMNIA_HEARTBEAT for one scope and restores the previous value.
class ScopedHeartbeatEnv {
 public:
  explicit ScopedHeartbeatEnv(const char* value) {
    if (const char* old = std::getenv("INSOMNIA_HEARTBEAT")) saved_ = old;
    had_ = std::getenv("INSOMNIA_HEARTBEAT") != nullptr;
    ::setenv("INSOMNIA_HEARTBEAT", value, 1);
  }
  ~ScopedHeartbeatEnv() {
    if (had_) {
      ::setenv("INSOMNIA_HEARTBEAT", saved_.c_str(), 1);
    } else {
      ::unsetenv("INSOMNIA_HEARTBEAT");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(HeartbeatEnv, ParsesTheSharedGrammar) {
  {
    ScopedHeartbeatEnv env("500ms");
    EXPECT_DOUBLE_EQ(obs::Heartbeat::interval_from_env(2.0), 0.5);
  }
  {
    ScopedHeartbeatEnv env("off");
    EXPECT_DOUBLE_EQ(obs::Heartbeat::interval_from_env(2.0), 0.0);
  }
}

TEST(HeartbeatEnv, DurationsPastTheCeilingFallBack) {
  // Heartbeat::loop waits on the period; 1e300 s would overflow the wait's
  // integer ticks, so the knob is refused (with a warning) like a typo.
  for (const char* value : {"1e300s", "1e300", "8761h", "garbage"}) {
    ScopedHeartbeatEnv env(value);
    EXPECT_DOUBLE_EQ(obs::Heartbeat::interval_from_env(2.0), 2.0) << value;
  }
  ScopedHeartbeatEnv env("8760h");
  EXPECT_DOUBLE_EQ(obs::Heartbeat::interval_from_env(2.0), kMaxDurationSeconds);
}

}  // namespace
}  // namespace insomnia::util
