#include "trace/incremental_reader.h"

#include <string>
#include <vector>

#include "trace/trace_io.h"
#include "util/error.h"
#include "util/strings.h"

namespace insomnia::trace {

std::size_t FlowLineDecoder::feed(std::string_view data, FlowTrace& out) {
  std::size_t decoded = 0;
  while (!data.empty()) {
    const std::size_t nl = data.find('\n');
    if (nl == std::string_view::npos) {
      check_line_length(partial_.size() + data.size());
      partial_.append(data);
      break;
    }
    check_line_length(partial_.size() + nl);
    if (partial_.empty()) {
      decoded += decode_line(data.substr(0, nl), out);
    } else {
      partial_.append(data.substr(0, nl));
      decoded += decode_line(partial_, out);
      partial_.clear();
    }
    data.remove_prefix(nl + 1);
  }
  return decoded;
}

std::size_t FlowLineDecoder::finalize(FlowTrace& out) {
  if (partial_.empty()) return 0;
  const std::string line = std::move(partial_);
  partial_.clear();
  return decode_line(line, out);
}

void FlowLineDecoder::check_line_length(std::size_t bytes) {
  if (bytes <= kMaxLineBytes) return;
  partial_.clear();
  throw util::InvalidArgument("flow trace line longer than " +
                              std::to_string(kMaxLineBytes) + " bytes");
}

std::size_t FlowLineDecoder::decode_line(std::string_view line, FlowTrace& out) {
  const std::string_view trimmed = util::trim(line);
  if (trimmed.empty() || trimmed.front() == '#') return 0;
  std::vector<std::string> fields = util::split(trimmed, ',');
  for (auto& f : fields) f = std::string(util::trim(f));
  if (!header_seen_) {
    util::require(fields == std::vector<std::string>{"start_time", "client", "bytes"},
                  "flow trace must start with a start_time,client,bytes header");
    header_seen_ = true;
    return 0;
  }
  out.push_back(parse_flow_row(fields, rows_, last_time_));
  last_time_ = out.back().start_time;
  ++rows_;
  return 1;
}

}  // namespace insomnia::trace
