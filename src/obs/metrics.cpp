#include "obs/metrics.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "util/error.h"

namespace insomnia::obs {

namespace detail {

int shard_index() {
  static std::atomic<int> next{0};
  thread_local const int index =
      next.fetch_add(1, std::memory_order_relaxed) % kMaxShards;
  return index;
}

namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void atomic_add_double(std::atomic<std::uint64_t>& bits, double delta) {
  std::uint64_t expected = bits.load(std::memory_order_relaxed);
  while (!bits.compare_exchange_weak(
      expected, double_bits(bits_double(expected) + delta),
      std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<std::uint64_t>& bits, double v) {
  std::uint64_t expected = bits.load(std::memory_order_relaxed);
  while (v < bits_double(expected) &&
         !bits.compare_exchange_weak(expected, double_bits(v),
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<std::uint64_t>& bits, double v) {
  std::uint64_t expected = bits.load(std::memory_order_relaxed);
  while (v > bits_double(expected) &&
         !bits.compare_exchange_weak(expected, double_bits(v),
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

}  // namespace detail

// --- Counter ---------------------------------------------------------------

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const detail::Slot& slot : slots_) total += slot.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (detail::Slot& slot : slots_) slot.v.store(0, std::memory_order_relaxed);
}

// --- Gauge -----------------------------------------------------------------

void Gauge::set(double v) {
  if (!enabled()) return;
  bits_.store(detail::double_bits(v), std::memory_order_relaxed);
}

void Gauge::add(double v) {
  if (!enabled()) return;
  detail::atomic_add_double(bits_, v);
}

double Gauge::value() const {
  return detail::bits_double(bits_.load(std::memory_order_relaxed));
}

void Gauge::reset() { bits_.store(0, std::memory_order_relaxed); }

// --- Histogram -------------------------------------------------------------

namespace {

int checked_bins(double lo, double hi, int bins) {
  util::require(lo > 0.0 && hi > lo && bins >= 1,
                "Histogram needs 0 < lo < hi and bins >= 1");
  return bins;
}

}  // namespace

Histogram::Histogram(double lo, double hi, int bins, Recording recording)
    : lo_(lo),
      hi_(hi),
      bins_(checked_bins(lo, hi, bins)),
      inv_log_step_(static_cast<double>(bins) / std::log(hi / lo)),
      recording_(recording),
      counts_(static_cast<std::size_t>(kMaxShards) * (bins + 2)),
      min_bits_(kMaxShards),
      max_bits_(kMaxShards),
      sum_bits_(kMaxShards) {
  reset();
}

int Histogram::bin_for(double v) const {
  if (!(v >= lo_)) return 0;          // underflow (zero/negative/NaN)
  if (v >= hi_) return bins_ + 1;     // overflow
  const int bin = 1 + static_cast<int>(std::log(v / lo_) * inv_log_step_);
  // log() rounding can land an exact-edge value one bin out; clamp.
  return bin < 1 ? 1 : (bin > bins_ ? bins_ : bin);
}

double Histogram::bin_edge(int i) const {
  return lo_ * std::exp(static_cast<double>(i) / inv_log_step_);
}

void Histogram::record_n(double v, std::uint64_t n) {
  if (n == 0 || (recording_ == Recording::kWhenEnabled && !enabled())) return;
  const int shard = detail::shard_index();
  counts_[static_cast<std::size_t>(shard) * (bins_ + 2) + bin_for(v)].v.fetch_add(
      n, std::memory_order_relaxed);
  detail::atomic_min_double(min_bits_[shard], v);
  detail::atomic_max_double(max_bits_[shard], v);
  detail::atomic_add_double(sum_bits_[shard], v * static_cast<double>(n));
}

Histogram::Snapshot Histogram::snapshot() const {
  // Deterministic fold: bin sums in bin-major order (integers, so shard
  // assignment cannot change them), exact extrema, shard-ordered sum.
  std::vector<std::uint64_t> folded(static_cast<std::size_t>(bins_) + 2, 0);
  Snapshot out;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  for (int shard = 0; shard < kMaxShards; ++shard) {
    for (int bin = 0; bin < bins_ + 2; ++bin) {
      folded[bin] +=
          counts_[static_cast<std::size_t>(shard) * (bins_ + 2) + bin].v.load(
              std::memory_order_relaxed);
    }
    const double shard_min = detail::bits_double(min_bits_[shard].load(std::memory_order_relaxed));
    const double shard_max = detail::bits_double(max_bits_[shard].load(std::memory_order_relaxed));
    if (shard_min < min) min = shard_min;
    if (shard_max > max) max = shard_max;
    out.sum += detail::bits_double(sum_bits_[shard].load(std::memory_order_relaxed));
  }
  for (const std::uint64_t c : folded) out.count += c;
  if (out.count == 0) return Snapshot{};
  out.min = min;
  out.max = max;

  const auto quantile = [&](double q) {
    std::uint64_t target = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(out.count)));
    if (target < 1) target = 1;
    std::uint64_t cumulative = 0;
    for (int bin = 0; bin < bins_ + 2; ++bin) {
      cumulative += folded[bin];
      if (cumulative >= target) {
        double representative;
        if (bin == 0) {
          representative = min;  // underflow: only the exact floor is known
        } else if (bin == bins_ + 1) {
          representative = max;  // overflow: only the exact ceiling is known
        } else {
          representative = std::sqrt(bin_edge(bin - 1) * bin_edge(bin));
        }
        // Clamp to the observed range so degenerate histograms (one distinct
        // value) read back exactly.
        if (representative < min) representative = min;
        if (representative > max) representative = max;
        return representative;
      }
    }
    return max;
  };
  out.p50 = quantile(0.50);
  out.p95 = quantile(0.95);
  out.p99 = quantile(0.99);
  return out;
}

void Histogram::reset() {
  for (detail::Slot& slot : counts_) slot.v.store(0, std::memory_order_relaxed);
  for (auto& bits : min_bits_) {
    bits.store(detail::double_bits(std::numeric_limits<double>::infinity()),
               std::memory_order_relaxed);
  }
  for (auto& bits : max_bits_) {
    bits.store(detail::double_bits(-std::numeric_limits<double>::infinity()),
               std::memory_order_relaxed);
  }
  for (auto& bits : sum_bits_) {
    bits.store(detail::double_bits(0.0), std::memory_order_relaxed);
  }
}

// --- Registry --------------------------------------------------------------

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, double lo, double hi, int bins) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(lo, hi, bins);
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.push_back({name, counter->value()});
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) out.gauges.push_back({name, gauge->value()});
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.histograms.push_back({name, histogram->snapshot()});
  }
  return out;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, gauge] : gauges_) gauge->reset();
  for (const auto& [name, histogram] : histograms_) histogram->reset();
}

Counter& counter(const std::string& name) { return Registry::global().counter(name); }

Gauge& gauge(const std::string& name) { return Registry::global().gauge(name); }

Histogram& histogram(const std::string& name, double lo, double hi, int bins) {
  return Registry::global().histogram(name, lo, hi, bins);
}

}  // namespace insomnia::obs
