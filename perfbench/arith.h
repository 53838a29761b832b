// The benchmark's own arithmetic, kept free of the simulator so that
// selftest.cpp can check it on synthetic inputs: quantiles, open-loop lag,
// fleet utilisation ratios, failure fractions, and span self time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// q-quantile (0 <= q <= 1) by linear interpolation between closest ranks
/// (the "type 7" estimator): q = 0 is the minimum, q = 1 the maximum.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of an empty sample");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("quantile outside [0, 1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// The mean over inputs of each input's median time: every input keeps its
/// weight in the result, while a burst of contention on the host moves only
/// the samples it hits, not the medians.
inline double mean_of_medians(const std::vector<std::vector<double>>& per_input) {
  if (per_input.empty()) throw std::invalid_argument("mean of no medians");
  double sum = 0.0;
  for (const std::vector<double>& samples : per_input) sum += median(samples);
  return sum / static_cast<double>(per_input.size());
}

/// Open loop: the wall time a record at virtual time `record_time_s` was due,
/// when virtual time runs `speedup` times faster than the wall clock from
/// `start_ns`.
inline double due_ns(std::uint64_t start_ns, double record_time_s, double speedup) {
  if (!(speedup > 0.0)) throw std::invalid_argument("speedup must be positive");
  return static_cast<double>(start_ns) + record_time_s / speedup * 1e9;
}

/// Milliseconds from a record's due time to its hand-over at `handover_ns`.
/// Negative when a record is handed over early.
inline double lag_ms(std::uint64_t start_ns, double record_time_s, double speedup,
                     std::uint64_t handover_ns) {
  return (static_cast<double>(handover_ns) - due_ns(start_ns, record_time_s, speedup)) /
         1e6;
}

/// Share of the fleet's thread-time spent simulating cities:
/// sum of serial city times / (threads x fleet wall).
inline double busy_frac(double city_ms_sum, int threads, double fleet_wall_ms) {
  if (threads < 1 || !(fleet_wall_ms > 0.0)) {
    throw std::invalid_argument("busy_frac needs threads >= 1 and a positive wall");
  }
  return city_ms_sum / (static_cast<double>(threads) * fleet_wall_ms);
}

/// Largest single city over the fleet wall: near 1 means one shard sets the
/// fleet's wall time no matter how many threads run.
inline double critical_path_frac(double city_ms_max, double fleet_wall_ms) {
  if (!(fleet_wall_ms > 0.0)) throw std::invalid_argument("fleet wall must be positive");
  return city_ms_max / fleet_wall_ms;
}

/// Operations that failed an output check over operations attempted.
inline double failed_frac(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) throw std::invalid_argument("failed_frac with nothing attempted");
  if (failed > attempted) throw std::invalid_argument("more failures than attempts");
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

/// One recorded span: [start_ns, end_ns) of a named call; `parent` indexes
/// the enclosing span in the same log, or -1 for a root.
struct Span {
  std::string name;
  int parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// A span's self time: its duration minus the part of it that the union of
/// its direct children covers (children clipped to the parent interval).
inline double self_ms(const std::vector<Span>& spans, std::size_t index) {
  const Span& parent = spans.at(index);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
  for (const Span& s : spans) {
    if (s.parent != static_cast<int>(index)) continue;
    const std::uint64_t a = std::max(s.start_ns, parent.start_ns);
    const std::uint64_t b = std::min(s.end_ns, parent.end_ns);
    if (a < b) covered.emplace_back(a, b);
  }
  std::sort(covered.begin(), covered.end());
  std::uint64_t union_ns = 0;
  std::uint64_t reach = parent.start_ns;
  for (const auto& [a, b] : covered) {
    const std::uint64_t from = std::max(a, reach);
    if (b > from) {
      union_ns += b - from;
      reach = b;
    }
  }
  return static_cast<double>(parent.end_ns - parent.start_ns - union_ns) / 1e6;
}

}  // namespace perfbench
