// The shared duration grammar (util/duration.h): suffix handling, the
// bare-number unit parameter, and the rejection cases every call site
// (fault-plan slow-shard, INSOMNIA_HEARTBEAT, livectl --tick-ms/--duration)
// relies on to fail loudly instead of guessing.
#include <string>

#include <gtest/gtest.h>

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
  EXPECT_TRUE(parse_duration_seconds("1e306s").has_value());  // finite in seconds
}

TEST(ParseDuration, GrammarHelpNamesTheAcceptedForms) {
  const std::string help = duration_grammar_help();
  EXPECT_NE(help.find("ms"), std::string::npos) << help;
  EXPECT_NE(help.find("s"), std::string::npos) << help;
}

}  // namespace
}  // namespace insomnia::util
