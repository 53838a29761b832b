// Bounded ingest buffer between an EventSource and the scheme's runtime.
// The bound is the controller's memory/latency contract: when the fleet
// cannot keep up, either the source stops being polled (kBackpressure — the
// kernel's socket buffer or the file itself absorbs the burst) or the
// newest records are counted and dropped (kDropNewest — load-shedding for
// sources that must be drained). Each accepted record carries its ingest
// wall-clock stamp; because records are stamped once per poll batch, stamps
// are stored run-length-encoded — the queue moves ~1M records/s through a
// single thread, so per-record bookkeeping is what the layout optimizes
// away. The controller turns stamps into the ingest→decision latency
// histogram when arrivals are consumed.
//
// Records are copied once on the way in — a source polls straight into the
// queue's storage (poll_from) — and once on the way out, when the consumer
// reads the contiguous queued span (front/consume) into its own buffer.
// That is the queue's only way in and out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "live/event_source.h"
#include "obs/obs.h"
#include "trace/records.h"

namespace insomnia::live {

enum class OverflowPolicy {
  kBackpressure,  ///< stop polling the source while full
  kDropNewest,    ///< keep polling; count and discard what does not fit
};

/// A contiguous run of records sharing one ingest stamp.
struct StampRun {
  std::uint64_t stamp_ns = 0;
  std::uint32_t count = 0;
};

class IngestQueue {
 public:
  /// The ingest stamp clock, read once per poll (obs::now_ns by default).
  using Clock = std::uint64_t (*)();

  IngestQueue(std::size_t capacity, OverflowPolicy policy, Clock clock = obs::now_ns);

  /// Slots available before the queue is full.
  std::size_t free_slots() const { return capacity_ - size(); }
  std::size_t size() const { return records_.size() - head_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size() == 0; }

  /// One source poll, appended straight to the queue's storage.
  struct Polled {
    std::size_t got = 0;    ///< records the source returned
    std::size_t taken = 0;  ///< of those, queued (the rest were shed)
    /// The `taken` records just queued; valid until the queue next changes.
    const trace::FlowRecord* records = nullptr;
  };

  /// Polls `source` once for up to `max` records (EventSource::poll's
  /// `horizon`) into the queue's own storage and queues them, stamped with
  /// the clock read after the poll. Under kBackpressure a poll that returns
  /// more than free_slots() is a caller bug (it must pass max <=
  /// free_slots()) and throws util::InvalidState; under kDropNewest the
  /// batch's tail beyond capacity is counted and discarded. A poll that
  /// throws, or returns a count other than what it appended (InvalidState),
  /// leaves the queue as it was.
  Polled poll_from(EventSource& source, double horizon, std::size_t max);

  /// The oldest queued record; all size() queued records are contiguous
  /// from it. Valid until the queue next changes.
  const trace::FlowRecord* front() const { return records_.data() + head_; }

  /// Drops the `count` oldest records (count <= size()) and appends their
  /// ingest stamps to `stamps` as runs (merged with the last run when the
  /// stamp matches).
  void consume(std::size_t count, std::deque<StampRun>& stamps);

  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t peak_depth() const { return peak_depth_; }

 private:
  std::size_t capacity_;
  OverflowPolicy policy_;
  Clock clock_;

  /// Queued records are records_[head_, records_.size()); consumed ones
  /// before head_ are reclaimed once they outnumber the queued ones.
  trace::FlowTrace records_;
  std::size_t head_ = 0;
  std::deque<StampRun> stamps_;  ///< run-length, same order as the queued records
  std::uint64_t accepted_ = 0;
  std::uint64_t dropped_ = 0;
  std::size_t peak_depth_ = 0;
};

}  // namespace insomnia::live
