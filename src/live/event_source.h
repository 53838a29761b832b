// The online layer's ingest abstraction: an EventSource produces flow
// arrivals incrementally — a deterministic seeded generator (load tests,
// demos, the replay-equivalence gate), a tailed trace file, or a socket fed
// by an external producer (live/tail_source.h, live/socket_source.h). The
// LiveController polls the active source once per tick, moves the records
// through a bounded IngestQueue, and feeds them to the scheme's
// AccessRuntime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/records.h"
#include "trace/synthetic_crawdad.h"

namespace insomnia::live {

/// An incremental producer of time-sorted flow arrivals.
class EventSource {
 public:
  virtual ~EventSource() = default;

  /// Appends up to `max` records to `out` and returns how many. `horizon`
  /// caps the virtual time of synthesized arrivals (the generator never
  /// emits an arrival later than `horizon`, keeping memory bounded to the
  /// controller's tick lookahead); IO-backed sources ignore it — whatever
  /// bytes have arrived are already "now" in wall terms. Returning 0 means
  /// nothing is available yet, not necessarily exhaustion.
  virtual std::size_t poll(double horizon, std::size_t max, trace::FlowTrace& out) = 0;

  /// True once the source can never produce another record.
  virtual bool exhausted() const = 0;

  /// One-line description for banners and error messages.
  virtual std::string describe() const = 0;
};

/// Deterministic synthetic source: day k is the synthetic-CRAWDAD trace
/// drawn from keyed substream (seed, k, core::kRunDayKeys.trace) — exactly
/// the trace Engine run k replays — with start times offset by k * day
/// duration, so consecutive days form one continuous sorted stream. A
/// one-day GeneratorSource fed through the virtual-time LiveController
/// therefore reproduces the offline Engine's synthetic run 0 bit for bit.
class GeneratorSource : public EventSource {
 public:
  /// Generates `days` >= 1 days of `config` traffic seeded from `seed`.
  GeneratorSource(trace::SyntheticTraceConfig config, std::uint64_t seed, int days);

  std::size_t poll(double horizon, std::size_t max, trace::FlowTrace& out) override;
  bool exhausted() const override;
  std::string describe() const override;

  /// Mean records per virtual second of day 0 (generating it on first use);
  /// livectl derives the --rate pacing factor from this.
  double mean_records_per_virtual_sec();

 private:
  /// Ensures the day containing the cursor is generated; false when all
  /// days are spent.
  bool refill();

  trace::SyntheticTraceConfig config_;
  std::uint64_t seed_;
  int days_;
  int next_day_ = 0;        ///< next day index to generate
  trace::FlowTrace buffer_; ///< current day, times already offset
  std::size_t cursor_ = 0;  ///< next unread record in buffer_
};

}  // namespace insomnia::live
