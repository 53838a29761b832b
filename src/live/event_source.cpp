#include "live/event_source.h"

#include <utility>

#include "core/day_summary.h"
#include "sim/random.h"
#include "util/error.h"
#include "util/strings.h"

namespace insomnia::live {

GeneratorSource::GeneratorSource(trace::SyntheticTraceConfig config, std::uint64_t seed,
                                 int days)
    : config_(config), seed_(seed), days_(days) {
  util::require(days >= 1, "GeneratorSource needs at least one day");
  util::require(config.duration > 0.0, "GeneratorSource needs a positive day length");
  // Synthesize day 0 now: it is the daemon's startup cost (like a trace file
  // already existing on disk for the tail source), not part of the ingest
  // window the controller measures. Later days refill lazily.
  refill();
}

bool GeneratorSource::refill() {
  while (cursor_ >= buffer_.size()) {
    if (next_day_ >= days_) return false;
    const int day = next_day_++;
    // Engine run k's trace substream, so day 0 == the offline synthetic day.
    sim::Random rng(sim::Random::substream_seed(seed_, static_cast<std::uint64_t>(day),
                                                core::kRunDayKeys.trace));
    buffer_ = trace::SyntheticCrawdadGenerator(config_).generate(rng);
    cursor_ = 0;
    const double offset = config_.duration * static_cast<double>(day);
    for (trace::FlowRecord& record : buffer_) record.start_time += offset;
  }
  return true;
}

std::size_t GeneratorSource::poll(double horizon, std::size_t max, trace::FlowTrace& out) {
  std::size_t produced = 0;
  while (produced < max && refill()) {
    const trace::FlowRecord& head = buffer_[cursor_];
    if (head.start_time > horizon) break;  // the future stays unsynthesized
    out.push_back(head);
    ++cursor_;
    ++produced;
  }
  return produced;
}

bool GeneratorSource::exhausted() const {
  return next_day_ >= days_ && cursor_ >= buffer_.size();
}

std::string GeneratorSource::describe() const {
  return "gen(seed " + std::to_string(seed_) + ", " + std::to_string(days_) + " day" +
         (days_ == 1 ? "" : "s") + ", " + std::to_string(config_.client_count) +
         " clients)";
}

double GeneratorSource::mean_records_per_virtual_sec() {
  util::require_state(next_day_ <= 1 && cursor_ == 0,
                      "rate estimate must run before polling starts");
  refill();  // generates day 0 on first use; kept for serving
  return static_cast<double>(buffer_.size()) / config_.duration;
}

}  // namespace insomnia::live
