#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/random.h"
#include "trace/incremental_reader.h"
#include "trace/synthetic_crawdad.h"
#include "trace/trace_io.h"
#include "util/error.h"

namespace insomnia::trace {
namespace {

TEST(TraceIo, RoundTripPreservesRecords) {
  FlowTrace flows{{0.5, 3, 1000.0}, {1.25, 0, 250.75}, {9999.0, 271, 5e8}};
  std::stringstream buffer;
  write_flow_trace(buffer, flows);
  const FlowTrace loaded = read_flow_trace(buffer);
  ASSERT_EQ(loaded.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_NEAR(loaded[i].start_time, flows[i].start_time, 1e-6);
    EXPECT_EQ(loaded[i].client, flows[i].client);
    EXPECT_NEAR(loaded[i].bytes, flows[i].bytes, flows[i].bytes * 1e-6 + 1e-6);
  }
}

TEST(TraceIo, RoundTripOfGeneratedTrace) {
  SyntheticTraceConfig config;
  config.client_count = 25;
  sim::Random rng(3);
  const FlowTrace flows = SyntheticCrawdadGenerator(config).generate(rng);
  std::stringstream buffer;
  write_flow_trace(buffer, flows);
  const FlowTrace loaded = read_flow_trace(buffer);
  EXPECT_EQ(loaded.size(), flows.size());
}

TEST(TraceIo, EmptyTrace) {
  std::stringstream buffer;
  write_flow_trace(buffer, {});
  EXPECT_TRUE(read_flow_trace(buffer).empty());
}

TEST(TraceIo, RejectsEmptyFile) {
  std::istringstream in("");
  EXPECT_THROW(read_flow_trace(in), util::InvalidArgument);
  std::istringstream comments_only("# a comment\n\n# another\n");
  EXPECT_THROW(read_flow_trace(comments_only), util::InvalidArgument);
}

TEST(TraceIo, RejectsMissingHeader) {
  // Data-first input: without the check the first record would be silently
  // consumed as a header.
  std::istringstream in("0,0,10\n1,0,10\n");
  EXPECT_THROW(read_flow_trace(in), util::InvalidArgument);
  std::istringstream wrong_names("time,who,size\n1,0,10\n");
  EXPECT_THROW(read_flow_trace(wrong_names), util::InvalidArgument);
}

TEST(TraceIo, RejectsTrailingGarbage) {
  std::istringstream extra_field("start_time,client,bytes\n1,0,10,junk\n");
  EXPECT_THROW(read_flow_trace(extra_field), util::InvalidArgument);
  std::istringstream junk_in_field("start_time,client,bytes\n1,0,10junk\n");
  EXPECT_THROW(read_flow_trace(junk_in_field), util::InvalidArgument);
  std::istringstream trailer_line("start_time,client,bytes\n1,0,10\ngarbage trailer\n");
  EXPECT_THROW(read_flow_trace(trailer_line), util::InvalidArgument);
}

TEST(TraceIo, RejectsFractionalClient) {
  std::istringstream in("start_time,client,bytes\n1,0.5,10\n");
  EXPECT_THROW(read_flow_trace(in), util::InvalidArgument);
}

TEST(TraceIo, RejectsOutOfRangeClient) {
  // Must be rejected by the range check, not hit the undefined
  // double-to-int conversion.
  std::istringstream too_big("start_time,client,bytes\n1,2147483648,10\n");
  EXPECT_THROW(read_flow_trace(too_big), util::InvalidArgument);
  std::istringstream negative("start_time,client,bytes\n1,-1,10\n");
  EXPECT_THROW(read_flow_trace(negative), util::InvalidArgument);
}

TEST(TraceIo, RejectsWrongColumnCount) {
  std::istringstream in("start_time,client\n1,2\n");
  EXPECT_THROW(read_flow_trace(in), util::InvalidArgument);
}

TEST(TraceIo, RejectsUnsortedTimes) {
  std::istringstream in("start_time,client,bytes\n5,0,10\n1,0,10\n");
  EXPECT_THROW(read_flow_trace(in), util::InvalidArgument);
}

TEST(TraceIo, RejectsMalformedNumbers) {
  std::istringstream in("start_time,client,bytes\nabc,0,10\n");
  EXPECT_THROW(read_flow_trace(in), util::InvalidArgument);
}

TEST(TraceIo, RejectsNegativeBytes) {
  std::istringstream in("start_time,client,bytes\n1,0,-5\n");
  EXPECT_THROW(read_flow_trace(in), util::InvalidArgument);
}

// strtod takes "inf" and "nan", and a first row used to be checked only
// against the -1.0 sorted-times floor. Each of these rows once got through.
const char* const kBadRows[] = {"-0.5,0,10", "inf,0,10", "nan,0,10", "-inf,0,10",
                                "1,0,inf",   "1,0,nan", "1,0,-inf"};

TEST(TraceIo, RejectsNegativeAndNonFiniteTimesAndBytes) {
  for (const char* row : kBadRows) {
    std::istringstream in(std::string("start_time,client,bytes\n") + row + "\n");
    EXPECT_THROW(read_flow_trace(in), util::InvalidArgument) << row;
  }
}

TEST(TraceIo, BadRowErrorNamesTheRow) {
  std::istringstream in("start_time,client,bytes\n1,0,10\n2,0,inf\n");
  try {
    read_flow_trace(in);
    FAIL() << "infinite bytes accepted";
  } catch (const util::InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("data row 1"), std::string::npos)
        << error.what();
  }
}

TEST(TraceIo, ZeroTimeAndZeroBytesAreValid) {
  std::istringstream in("start_time,client,bytes\n0,0,0\n");
  const FlowTrace flows = read_flow_trace(in);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].start_time, 0.0);
  EXPECT_EQ(flows[0].bytes, 0.0);
}

TEST(FlowLineDecoder, RejectsNegativeAndNonFiniteTimesAndBytes) {
  for (const char* row : kBadRows) {
    FlowLineDecoder decoder;
    FlowTrace out;
    decoder.feed("start_time,client,bytes\n", out);
    EXPECT_THROW(decoder.feed(std::string(row) + "\n", out), util::InvalidArgument) << row;
    EXPECT_TRUE(out.empty()) << row;
  }
}

TEST(TraceIo, SaveAndLoadFile) {
  const std::string path = ::testing::TempDir() + "/trace_io_test.csv";
  FlowTrace flows{{1.0, 0, 100.0}, {2.0, 1, 200.0}};
  save_flow_trace(path, flows);
  const FlowTrace loaded = load_flow_trace(path);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_THROW(load_flow_trace("/nonexistent/dir/file.csv"), util::InvalidArgument);
}

TEST(TraceIo, SaveAndLoadGeneratedTrace) {
  SyntheticTraceConfig config;
  config.client_count = 25;
  sim::Random rng(11);
  const FlowTrace flows = SyntheticCrawdadGenerator(config).generate(rng);
  ASSERT_FALSE(flows.empty());

  const std::string path = ::testing::TempDir() + "/trace_io_generated.csv";
  save_flow_trace(path, flows);
  const FlowTrace loaded = load_flow_trace(path);
  ASSERT_EQ(loaded.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_NEAR(loaded[i].start_time, flows[i].start_time, 1e-6) << "flow " << i;
    EXPECT_EQ(loaded[i].client, flows[i].client) << "flow " << i;
    EXPECT_NEAR(loaded[i].bytes, flows[i].bytes, flows[i].bytes * 1e-6 + 1e-6)
        << "flow " << i;
  }
}

}  // namespace
}  // namespace insomnia::trace
