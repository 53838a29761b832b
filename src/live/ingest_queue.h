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
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

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
  IngestQueue(std::size_t capacity, OverflowPolicy policy);

  /// Slots available before the queue is full.
  std::size_t free_slots() const { return capacity_ - records_.size(); }
  std::size_t size() const { return records_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return records_.empty(); }

  /// Accepts (or sheds, see OverflowPolicy) `count` records stamped
  /// `stamp_ns` and returns how many were queued. Under kBackpressure
  /// pushing past capacity is a caller bug (it must honour free_slots())
  /// and throws; under kDropNewest the overflow is counted and discarded.
  std::size_t push_batch(const trace::FlowRecord* records, std::size_t count,
                         std::uint64_t stamp_ns);

  /// Pops up to `max` records in FIFO order into `records`, with their
  /// ingest stamps appended to `stamps` as runs (merged with the last run
  /// when the stamp matches). Returns the count.
  std::size_t pop(std::size_t max, trace::FlowTrace& records,
                  std::deque<StampRun>& stamps);

  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t peak_depth() const { return peak_depth_; }

 private:
  std::size_t capacity_;
  OverflowPolicy policy_;
  std::deque<trace::FlowRecord> records_;
  std::deque<StampRun> stamps_;  ///< run-length, same order as records_
  std::uint64_t accepted_ = 0;
  std::uint64_t dropped_ = 0;
  std::size_t peak_depth_ = 0;
};

}  // namespace insomnia::live
