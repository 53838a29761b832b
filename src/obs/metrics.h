// Lock-free-on-the-hot-path metrics: counters, gauges, and log-binned
// histograms, registered by name in a process-wide registry.
//
// Hot-path contract: add()/record() touch one cache-line-padded per-thread
// shard slot with a relaxed atomic op — no locks, no allocation, and nothing
// at all when obs::enabled() is false (a single predictable branch; a
// constant under -DINSOMNIA_OBS=OFF). The one exception is a histogram built
// with Recording::kAlways, which a component owns to read its own latency
// whatever the telemetry switch says. Registry lookups (obs::counter("x"))
// take a mutex, so hot sites cache the reference once:
//
//   static obs::Counter& events = obs::counter("sim.events");
//   events.add(n);
//
// Collection contract: value()/snapshot() fold the per-thread shards in
// fixed slot order. Counter and histogram-bin folds are integer sums, so the
// folded totals are exactly the same whichever threads did the recording —
// sweep results collected at any thread count agree bit for bit
// (tests/test_obs_metrics.cpp pins this under exec::SweepRunner).
// Metric objects live for the whole process (reset zeroes values, never
// frees), so cached references stay valid forever.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace insomnia::obs {

/// Per-thread shard slots per metric. Threads hash onto slots (assignment
/// order, wrapping); collisions stay correct because slots are atomic.
inline constexpr int kMaxShards = 32;

namespace detail {

/// This thread's stable slot index in [0, kMaxShards).
int shard_index();

struct alignas(64) Slot {
  std::atomic<std::uint64_t> v{0};
};

}  // namespace detail

/// Monotonic event counter.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    slots_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Folded total (sum over shard slots in slot order).
  std::uint64_t value() const;

  void reset();

 private:
  detail::Slot slots_[kMaxShards];
};

/// Last-value / accumulating double (e.g. live watt aggregates, totals set
/// at collection points). Single atomic slot — gauges are low-rate.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v);
  void add(double v);  ///< atomic CAS add
  double value() const;
  void reset();

 private:
  std::atomic<std::uint64_t> bits_{0};  ///< IEEE-754 pattern of the value
};

/// Fixed log-spaced-bin histogram with p50/p95/p99 readout. Values below
/// `lo` (including zero/negative) land in an underflow bin, values >= `hi`
/// in an overflow bin; exact min/max/sum are tracked alongside so quantile
/// estimates clamp to the observed range (a single recorded value reads
/// back exactly).
class Histogram {
 public:
  enum class Recording {
    kWhenEnabled,  ///< telemetry: a no-op while obs::enabled() is false
    kAlways,       ///< records regardless, also under -DINSOMNIA_OBS=OFF
  };

  /// `bins` log-spaced bins covering [lo, hi); lo > 0, hi > lo, bins >= 1.
  Histogram(double lo, double hi, int bins, Recording recording = Recording::kWhenEnabled);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double v) { record_n(v, 1); }
  /// Records `n` samples of `v` in one step. The sum grows by v * n, which
  /// equals n record(v) calls for integer-valued samples whose running sum
  /// stays below 2^53.
  void record_n(double v, std::uint64_t n);

  struct Snapshot {
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  /// Deterministic fold of the shard bins (integer sums), then quantiles by
  /// cumulative-rank walk: the same recorded multiset gives the same
  /// snapshot no matter which threads recorded it.
  Snapshot snapshot() const;

  void reset();

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  int bins() const { return bins_; }

 private:
  int bin_for(double v) const;
  double bin_edge(int i) const;  ///< edge i of bins_ + 1 edges, log-spaced

  double lo_;
  double hi_;
  int bins_;
  double inv_log_step_;
  Recording recording_;
  std::vector<detail::Slot> counts_;  ///< kMaxShards * (bins + 2), underflow first
  // Exact per-shard extrema/sum (CAS-maintained; folded at snapshot).
  std::vector<std::atomic<std::uint64_t>> min_bits_;
  std::vector<std::atomic<std::uint64_t>> max_bits_;
  std::vector<std::atomic<std::uint64_t>> sum_bits_;
};

/// Name-sorted value dump of every registered metric.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    double value = 0.0;
  };
  struct HistogramRow {
    std::string name;
    Histogram::Snapshot stats;
  };
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;
};

/// The process-wide metric registry. Metrics register on first lookup and
/// live forever; the same name always returns the same object.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// The shape parameters apply on first registration only; later lookups
  /// of the same name return the existing histogram unchanged.
  Histogram& histogram(const std::string& name, double lo = 1.0, double hi = 1e12,
                       int bins = 60);

  MetricsSnapshot snapshot() const;

  /// Zeroes every value (objects and registrations survive, so cached
  /// references stay valid). Test hook; call only while no worker threads
  /// are recording.
  void reset_values();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  // std::map: stable addresses are guaranteed by unique_ptr; sorted
  // iteration gives the name-ordered snapshot for free.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Conveniences over Registry::global().
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name, double lo = 1.0, double hi = 1e12,
                     int bins = 60);

}  // namespace insomnia::obs
