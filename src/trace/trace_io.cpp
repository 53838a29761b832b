#include "trace/trace_io.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "resilience/fault_plan.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/strings.h"

namespace insomnia::trace {

void write_flow_trace(std::ostream& out, const FlowTrace& flows) {
  util::CsvWriter writer(out);
  writer.header({"start_time", "client", "bytes"});
  for (const FlowRecord& flow : flows) {
    writer.row({static_cast<double>(flow.start_time), static_cast<double>(flow.client),
                flow.bytes});
  }
}

namespace {

/// Parses a whole field as a double; trailing junk ("10x") is malformed, not
/// a 10 — silently truncating a corrupted trace would skew every replay.
double parse_field(const std::string& field) {
  const auto value = util::parse_double(field);
  util::require(value.has_value(), "malformed flow trace field \"" + field + "\"");
  return *value;
}

}  // namespace

FlowRecord parse_flow_row(const std::vector<std::string>& fields,
                          std::size_t row_index, double last_time) {
  // Chaos hook: a trace-garble plan makes random rows "unparseable" without
  // needing a corrupted fixture file — same loud rejection path as real
  // corruption, keyed on the row index so the failing rows are stable.
  const resilience::FaultPlan& faults = resilience::global_fault_plan();
  if (resilience::fault_fires(faults.trace_garble, faults.seed, row_index,
                              resilience::kTraceGarbleSalt)) {
    resilience::count_injected("trace_garble");
    throw util::InvalidArgument("injected trace fault at data row " +
                                std::to_string(row_index));
  }
  util::require(fields.size() == 3, "flow trace row must have 3 fields");
  FlowRecord record;
  record.start_time = parse_field(fields[0]);
  const double client = parse_field(fields[1]);
  // Range-check before the cast: converting an out-of-int-range double is
  // undefined behaviour, not a catchable error.
  util::require(client >= 0.0 && client <= std::numeric_limits<int>::max() &&
                    client == std::floor(client),
                "flow trace client must be a non-negative integer");
  record.client = static_cast<int>(client);
  record.bytes = parse_field(fields[2]);
  // strtod accepts "inf" and "nan": an infinite start is never replayed and
  // infinite bytes pin a gateway awake all day, so both are refused here.
  const auto require_row = [row_index](bool ok, const char* what) {
    if (!ok) {
      throw util::InvalidArgument("flow trace data row " + std::to_string(row_index) + ": " +
                                  what);
    }
  };
  require_row(std::isfinite(record.start_time) && record.start_time >= 0.0,
              "start_time must be finite and non-negative");
  require_row(std::isfinite(record.bytes) && record.bytes >= 0.0,
              "bytes must be finite and non-negative");
  require_row(record.start_time >= last_time, "flow trace must be sorted by time");
  return record;
}

FlowTrace read_flow_trace(std::istream& in) {
  const util::CsvDocument doc = util::parse_csv(in, /*has_header=*/true);
  // An empty stream or one that jumps straight into data rows is missing the
  // header — reject it rather than silently swallowing the first record.
  util::require(doc.header == std::vector<std::string>{"start_time", "client", "bytes"},
                "flow trace must start with a start_time,client,bytes header");
  FlowTrace flows;
  flows.reserve(doc.rows.size());
  double last_time = -1.0;
  for (std::size_t r = 0; r < doc.rows.size(); ++r) {
    flows.push_back(parse_flow_row(doc.rows[r], r, last_time));
    last_time = flows.back().start_time;
  }
  return flows;
}

void save_flow_trace(const std::string& path, const FlowTrace& flows) {
  std::ofstream out(path);
  util::require(out.good(), "cannot open trace file for writing: " + path);
  write_flow_trace(out, flows);
}

FlowTrace load_flow_trace(const std::string& path) {
  std::ifstream in(path);
  util::require(in.good(), "cannot open trace file for reading: " + path);
  return read_flow_trace(in);
}

}  // namespace insomnia::trace
