// Incremental flow-trace decoding for the online layer (src/live/): bytes
// arrive in arbitrary chunks (file tail polls, socket reads) and only
// COMPLETE lines are ever decoded — a row split across two chunks is
// buffered until its newline arrives, so a reader racing a writer can never
// emit a torn record. The dialect is exactly util::parse_csv's ('#' comment
// lines, blank lines, trimmed fields) and every data row goes through
// trace::parse_flow_row, so a streamed byte sequence decodes to the same
// records read_flow_trace would produce from the same bytes.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "trace/records.h"

namespace insomnia::trace {

/// Stateful line-at-a-time decoder of the `start_time,client,bytes` format.
/// Feed it byte chunks in stream order; it validates the header, enforces
/// the sorted-times contract across chunks, and keys the trace-garble chaos
/// hook on the running data-row index (matching read_flow_trace). Malformed
/// input throws util::InvalidArgument — a corrupt live feed must fail as
/// loudly as a corrupt file. So does a line longer than kMaxLineBytes,
/// which bounds the buffer a peer that never sends a newline can grow.
class FlowLineDecoder {
 public:
  /// Longest accepted line, newline excluded: far above any data row or
  /// comment the trace writers emit.
  static constexpr std::size_t kMaxLineBytes = 64 * 1024;

  /// Decodes every complete line in `data`, appending finished records to
  /// `out`. Returns the number of records appended. An incomplete trailing
  /// line is buffered for the next feed. A line past kMaxLineBytes, complete
  /// or not, throws util::InvalidArgument and leaves nothing buffered.
  std::size_t feed(std::string_view data, FlowTrace& out);

  /// Flushes the buffered trailing line at true end-of-input (a file's last
  /// row may legitimately lack a newline — read_flow_trace accepts that, so
  /// the tail reader must too). Returns the number of records appended
  /// (0 or 1). Only call when no more bytes can arrive.
  std::size_t finalize(FlowTrace& out);

  /// True once the header row has been seen and validated.
  bool header_seen() const { return header_seen_; }

  /// Data rows decoded so far (comments/blank lines excluded).
  std::size_t rows_decoded() const { return rows_; }

  /// Bytes currently buffered as an incomplete trailing line.
  std::size_t buffered_bytes() const { return partial_.size(); }

 private:
  /// Decodes one complete line (no newline). Appends 0 or 1 records.
  std::size_t decode_line(std::string_view line, FlowTrace& out);

  /// Refuses a line of `bytes` past kMaxLineBytes, dropping the buffer.
  void check_line_length(std::size_t bytes);

  std::string partial_;
  bool header_seen_ = false;
  std::size_t rows_ = 0;
  double last_time_ = -1.0;
};

}  // namespace insomnia::trace
