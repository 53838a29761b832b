// CSV import/export for flow traces, so generated workloads can be saved,
// inspected, and replayed byte-identically across machines.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/records.h"

namespace insomnia::trace {

/// Writes `flows` as CSV (`start_time,client,bytes`) with a header row.
void write_flow_trace(std::ostream& out, const FlowTrace& flows);

/// Validates and converts one already-split data row — the shared strict
/// path of read_flow_trace and the incremental tail decoder
/// (trace/incremental_reader.h), so a streamed byte sequence can never parse
/// differently from the same bytes read as a file. `row_index` keys the
/// trace-garble chaos hook; `last_time` enforces the sorted-times contract
/// (-1.0 for the first row). start_time and bytes must be finite and
/// non-negative. Throws util::InvalidArgument on any violation, naming the
/// data row for the time and byte checks.
FlowRecord parse_flow_row(const std::vector<std::string>& fields,
                          std::size_t row_index, double last_time);

/// Parses a flow trace written by write_flow_trace. Rows must be sorted by
/// start time; throws util::InvalidArgument on malformed input.
FlowTrace read_flow_trace(std::istream& in);

/// Convenience: writes to / reads from a file path.
void save_flow_trace(const std::string& path, const FlowTrace& flows);
FlowTrace load_flow_trace(const std::string& path);

}  // namespace insomnia::trace
