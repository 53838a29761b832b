// Event sources for the online layer: the generator's determinism contract
// (day 0 == the offline engine's synthetic day), and the incremental
// readers' torn-row guarantees — a trace file or socket racing its writer
// must only ever yield complete, validated rows, in order, or fail loudly.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "live/event_source.h"
#include "live/socket_source.h"
#include "live/tail_source.h"
#include "sim/random.h"
#include "trace/incremental_reader.h"
#include "trace/records.h"
#include "trace/synthetic_crawdad.h"
#include "trace/trace_io.h"
#include "util/error.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

namespace insomnia::live {
namespace {

trace::SyntheticTraceConfig small_traffic() {
  trace::SyntheticTraceConfig config;
  config.client_count = 24;
  config.duration = 7200.0;
  return config;
}

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

  void write(const std::string& text, bool append = true) {
    std::ofstream out(path_, append ? std::ios::app : std::ios::trunc);
    out << text;
  }

 private:
  std::string path_;
};

// --- GeneratorSource ------------------------------------------------------

TEST(GeneratorSource, DayZeroMatchesTheOfflineEngineTrace) {
  const trace::SyntheticTraceConfig config = small_traffic();
  // Engine run 0 draws its trace from keyed substream (seed, 0, 1).
  sim::Random rng(sim::Random::substream_seed(7, 0, 1));
  const trace::FlowTrace offline = trace::SyntheticCrawdadGenerator(config).generate(rng);

  GeneratorSource source(config, 7, /*days=*/1);
  trace::FlowTrace streamed;
  while (!source.exhausted()) {
    source.poll(config.duration + 1.0, 100, streamed);
  }
  ASSERT_EQ(streamed.size(), offline.size());
  for (std::size_t i = 0; i < offline.size(); ++i) {
    EXPECT_DOUBLE_EQ(streamed[i].start_time, offline[i].start_time) << "record " << i;
    EXPECT_EQ(streamed[i].client, offline[i].client) << "record " << i;
    EXPECT_DOUBLE_EQ(streamed[i].bytes, offline[i].bytes) << "record " << i;
  }
}

TEST(GeneratorSource, HorizonHoldsBackTheFuture) {
  GeneratorSource source(small_traffic(), 7, /*days=*/1);
  trace::FlowTrace early;
  source.poll(/*horizon=*/600.0, 1000000, early);
  for (const trace::FlowRecord& record : early) {
    EXPECT_LE(record.start_time, 600.0);
  }
  EXPECT_FALSE(source.exhausted());
  // Polling the same horizon again yields nothing new.
  trace::FlowTrace again;
  EXPECT_EQ(source.poll(600.0, 1000000, again), 0u);
}

TEST(GeneratorSource, ConsecutiveDaysFormOneSortedStream) {
  trace::SyntheticTraceConfig config;  // full diurnal day: day 1 is nonempty
  config.client_count = 8;
  GeneratorSource source(config, 7, /*days=*/2);
  trace::FlowTrace all;
  while (!source.exhausted()) {
    source.poll(1e18, 4096, all);
  }
  ASSERT_GT(all.size(), 0u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].start_time, all[i].start_time) << "record " << i;
  }
  EXPECT_GT(all.back().start_time, config.duration);  // day 1 is offset
}

// --- FlowLineDecoder ------------------------------------------------------

TEST(FlowLineDecoder, PartialTrailingLineIsBufferedNeverTorn) {
  trace::FlowLineDecoder decoder;
  trace::FlowTrace out;
  EXPECT_EQ(decoder.feed("start_time,client,bytes\n1.5,3,100", out), 0u);
  EXPECT_TRUE(decoder.header_seen());
  EXPECT_GT(decoder.buffered_bytes(), 0u);
  // The rest of the row plus the next row arrive in a later chunk.
  EXPECT_EQ(decoder.feed("0\n2.0,4,50\n", out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].start_time, 1.5);
  EXPECT_DOUBLE_EQ(out[0].bytes, 1000.0);  // "100" + "0" was ONE row, not two
  EXPECT_DOUBLE_EQ(out[1].start_time, 2.0);
}

TEST(FlowLineDecoder, ByteAtATimeMatchesWholeFileParse) {
  const std::string text =
      "start_time,client,bytes\n# comment\n0.5,1,10\n\n1.0,2,20\n1.5,0,30\n";
  std::istringstream stream(text);
  const trace::FlowTrace whole = trace::read_flow_trace(stream);

  trace::FlowLineDecoder decoder;
  trace::FlowTrace streamed;
  for (char byte : text) {
    decoder.feed(std::string_view(&byte, 1), streamed);
  }
  decoder.finalize(streamed);
  ASSERT_EQ(streamed.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_DOUBLE_EQ(streamed[i].start_time, whole[i].start_time);
    EXPECT_EQ(streamed[i].client, whole[i].client);
  }
}

TEST(FlowLineDecoder, FinalizeFlushesAnUnterminatedFinalRow) {
  trace::FlowLineDecoder decoder;
  trace::FlowTrace out;
  decoder.feed("start_time,client,bytes\n3.0,1,42", out);
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(decoder.finalize(out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].start_time, 3.0);
}

TEST(FlowLineDecoder, RejectsAWrongHeader) {
  trace::FlowLineDecoder decoder;
  trace::FlowTrace out;
  EXPECT_THROW(decoder.feed("time,who,bytes\n1,2,3\n", out), util::InvalidArgument);
}

TEST(FlowLineDecoder, EnforcesSortedTimesAcrossChunks) {
  trace::FlowLineDecoder decoder;
  trace::FlowTrace out;
  decoder.feed("start_time,client,bytes\n5.0,1,10\n", out);
  EXPECT_THROW(decoder.feed("4.0,1,10\n", out), util::InvalidArgument);
}

TEST(FlowLineDecoder, NewlineFreeFeedPastTheCapIsRefusedWithNothingBuffered) {
  trace::FlowLineDecoder decoder;
  trace::FlowTrace out;
  decoder.feed("start_time,client,bytes\n1.0,1,10\n", out);
  ASSERT_EQ(out.size(), 1u);

  // A peer that never sends a newline: chunks fill the buffer up to the
  // cap, and the chunk that would cross it is refused.
  const std::string chunk(4096, '9');
  std::size_t fed = 0;
  while (fed + chunk.size() <= trace::FlowLineDecoder::kMaxLineBytes) {
    decoder.feed(chunk, out);
    fed += chunk.size();
  }
  EXPECT_EQ(decoder.buffered_bytes(), fed);
  EXPECT_THROW(decoder.feed(chunk, out), util::InvalidArgument);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_EQ(out.size(), 1u);

  // A complete line over the cap is refused the same way, however it is
  // chunked, and nothing of it stays buffered.
  trace::FlowLineDecoder whole;
  whole.feed("start_time,client,bytes\n", out);
  const std::string long_line(trace::FlowLineDecoder::kMaxLineBytes + 1, '#');
  EXPECT_THROW(whole.feed(long_line + "\n", out), util::InvalidArgument);
  EXPECT_EQ(whole.buffered_bytes(), 0u);
}

// --- TailSource -----------------------------------------------------------

TEST(TailSource, GrowthBetweenPollsIsPickedUp) {
  TempFile file("tail_growth.trace");
  file.write("start_time,client,bytes\n1.0,1,10\n", /*append=*/false);

  TailSource source({file.path(), /*follow=*/true});
  trace::FlowTrace out;
  source.poll(0.0, 100, out);
  ASSERT_EQ(out.size(), 1u);

  // EOF then append: the next poll sees the new row.
  EXPECT_EQ(source.poll(0.0, 100, out), 0u);
  file.write("2.0,2,20\n");
  EXPECT_EQ(source.poll(0.0, 100, out), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].start_time, 2.0);
  EXPECT_FALSE(source.exhausted());  // follow mode keeps waiting

  source.stop_following();
  source.poll(0.0, 100, out);
  EXPECT_TRUE(source.exhausted());
}

TEST(TailSource, PartialRowOnDiskIsNeverTorn) {
  TempFile file("tail_partial.trace");
  file.write("start_time,client,bytes\n1.0,1,10\n2.0,2,2", /*append=*/false);

  TailSource source({file.path(), /*follow=*/true});
  trace::FlowTrace out;
  source.poll(0.0, 100, out);
  ASSERT_EQ(out.size(), 1u);  // the half-written row stays buffered

  file.write("00\n");  // the writer finishes the row
  source.poll(0.0, 100, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].bytes, 200.0);
}

TEST(TailSource, OnePassModeFlushesTheUnterminatedLastRow) {
  TempFile file("tail_onepass.trace");
  file.write("start_time,client,bytes\n1.0,1,10\n2.5,3,99", /*append=*/false);

  TailSource source({file.path(), /*follow=*/false});
  trace::FlowTrace out;
  while (!source.exhausted()) {
    source.poll(0.0, 100, out);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].start_time, 2.5);
}

TEST(TailSource, TruncationMidReadRefusesLoudly) {
  TempFile file("tail_trunc.trace");
  file.write("start_time,client,bytes\n1.0,1,10\n2.0,2,20\n", /*append=*/false);

  TailSource source({file.path(), /*follow=*/true});
  trace::FlowTrace out;
  source.poll(0.0, 100, out);
  ASSERT_EQ(out.size(), 2u);

  file.write("start_time,client,bytes\n", /*append=*/false);  // shrank!
  EXPECT_THROW(source.poll(0.0, 100, out), util::InvalidState);
}

TEST(TailSource, MissingFileThrows) {
  EXPECT_THROW(TailSource({::testing::TempDir() + "no_such.trace", false}),
               util::InvalidArgument);
}

// --- SocketSource ---------------------------------------------------------

void send_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::send(fd, text.data() + sent, text.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

TEST(SocketSource, UnixSocketStreamsCompleteRowsOnly) {
  const std::string sock_path = ::testing::TempDir() + "livesrc_test.sock";
  SocketSource source({sock_path, /*tcp_port=*/-1});

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", sock_path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  trace::FlowTrace out;
  source.poll(0.0, 100, out);  // accepts the connection

  send_all(fd, "start_time,client,bytes\n1.0,1,10\n2.0,2,2");
  for (int spin = 0; spin < 200 && out.empty(); ++spin) {
    source.poll(0.0, 100, out);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(out.size(), 1u);  // the split row is buffered, not torn

  send_all(fd, "0\n");
  for (int spin = 0; spin < 200 && out.size() < 2; ++spin) {
    source.poll(0.0, 100, out);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].bytes, 20.0);

  ::close(fd);  // producer hangs up -> stream complete
  for (int spin = 0; spin < 200 && !source.exhausted(); ++spin) {
    source.poll(0.0, 100, out);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(source.exhausted());
  std::remove(sock_path.c_str());
}

TEST(SocketSource, TcpEphemeralPortResolvesAndServes) {
  SocketSource source({"", /*tcp_port=*/0});
  ASSERT_GT(source.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(source.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  send_all(fd, "start_time,client,bytes\n0.5,4,77\n");
  ::close(fd);

  trace::FlowTrace out;
  for (int spin = 0; spin < 200 && !source.exhausted(); ++spin) {
    source.poll(0.0, 100, out);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].start_time, 0.5);
  EXPECT_EQ(out[0].client, 4);
}

}  // namespace
}  // namespace insomnia::live
