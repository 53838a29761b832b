#include "trace/synthetic_crawdad.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/error.h"

namespace insomnia::trace {

namespace {
constexpr double kPacketBytes = 1500.0;

SyntheticTraceConfig validated(SyntheticTraceConfig config) {
  util::require(config.client_count > 0, "trace needs at least one client");
  // A non-finite duration would never end a client's session loop.
  util::require(std::isfinite(config.duration) && config.duration > 0.0,
                "trace duration must be finite and positive");
  util::require(config.flow_size_max > config.flow_size_min && config.flow_size_min > 0.0,
                "flow size bounds must satisfy 0 < min < max");
  return config;
}
}  // namespace

std::size_t FlowChunks::size() const {
  std::size_t total = 0;
  for (const std::vector<FlowRecord>& chunk : chunks) total += chunk.size();
  return total;
}

FlowTrace order_by_start_time(FlowChunks records, double duration) {
  util::require(std::isfinite(duration) && duration > 0.0,
                "ordering needs a finite, positive duration");
  const std::size_t n = records.size();
  FlowTrace out;
  if (n == 0) return out;
  // t < duration gives t * n / duration < n up to rounding, hence the clamp.
  const double scale = static_cast<double>(n) / duration;
  const auto bucket = [scale, n](double t) {
    return std::min(static_cast<std::size_t>(t * scale), n - 1);
  };
  // offsets[b + 1] counts bucket b; the prefix sum makes offsets[b] its
  // start. 32-bit offsets halve the array the count and scatter index at
  // random, which keeps more of it in cache.
  util::require(n <= std::numeric_limits<std::uint32_t>::max(),
                "ordering holds at most 2^32 - 1 records");
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (const std::vector<FlowRecord>& chunk : records.chunks) {
    for (const FlowRecord& record : chunk) {
      util::require(record.start_time >= 0.0 && record.start_time < duration,
                    "flow start_time outside [0, duration)");
      ++offsets[bucket(record.start_time) + 1];
    }
  }
  for (std::size_t b = 1; b <= n; ++b) offsets[b] += offsets[b - 1];
  out.resize(n);
  for (std::vector<FlowRecord>& chunk : records.chunks) {
    for (const FlowRecord& record : chunk) out[offsets[bucket(record.start_time)]++] = record;
    std::vector<FlowRecord>().swap(chunk);
  }
  // Every record of a lower bucket starts strictly earlier, so this stable
  // insertion pass never moves a record out of its bucket: it sorts each
  // bucket in place.
  for (std::size_t i = 1; i < n; ++i) {
    if (!(out[i].start_time < out[i - 1].start_time)) continue;
    const FlowRecord record = out[i];
    std::size_t j = i;
    do {
      out[j] = out[j - 1];
      --j;
    } while (j > 0 && record.start_time < out[j - 1].start_time);
    out[j] = record;
  }
  return out;
}

SyntheticCrawdadGenerator::SyntheticCrawdadGenerator(SyntheticTraceConfig config)
    : config_(validated(std::move(config))),
      flow_size_(config_.flow_size_alpha, config_.flow_size_min, config_.flow_size_max) {}

FlowTrace SyntheticCrawdadGenerator::generate(sim::Random& rng) const {
  return order_by_start_time(emit(rng), config_.duration);
}

FlowChunks SyntheticCrawdadGenerator::emit(sim::Random& rng) const {
  FlowChunks flows;
  for (int client = 0; client < config_.client_count; ++client) {
    const bool always_on = rng.bernoulli(config_.always_on_fraction);
    generate_client(client, always_on, rng, flows);
  }
  return flows;
}

void SyntheticCrawdadGenerator::generate_client(int client, bool always_on, sim::Random& rng,
                                                FlowChunks& out) const {
  if (always_on) {
    generate_session(client, 0.0, config_.duration,
                     config_.flow_gap_mean * config_.always_on_flow_gap_factor, rng, out);
    return;
  }
  // Non-homogeneous Poisson session starts via thinning against the peak
  // rate; sessions do not overlap (a start during a session is discarded,
  // which slightly thins the process uniformly and is absorbed by the
  // calibration of session_rate_at_peak).
  double t = 0.0;
  double busy_until = 0.0;
  while (true) {
    t += rng.exponential(1.0 / config_.session_rate_at_peak);
    if (t >= config_.duration) break;
    if (t < busy_until) continue;
    if (!rng.bernoulli(config_.profile.at(t))) continue;
    const double length = rng.lognormal(config_.session_length_mu, config_.session_length_sigma);
    const double end = std::min(t + length, config_.duration);
    generate_session(client, t, end, config_.flow_gap_mean, rng, out);
    busy_until = end;
  }
}

void SyntheticCrawdadGenerator::generate_session(int client, double start, double end,
                                                 double flow_gap, sim::Random& rng,
                                                 FlowChunks& out) const {
  // Web-like transfers.
  double t = start + rng.exponential(flow_gap);
  while (t < end) {
    out.push_back({t, client, flow_size_(rng)});
    t += rng.exponential(flow_gap);
  }
  // Keep-alive / presence traffic: small but continuous.
  t = start + rng.exponential(config_.keepalive_gap_mean);
  while (t < end) {
    out.push_back(
        {t, client, rng.uniform(config_.keepalive_bytes_min, config_.keepalive_bytes_max)});
    t += rng.exponential(config_.keepalive_gap_mean);
  }
}

PacketTrace SyntheticCrawdadGenerator::expand_to_packets(const FlowTrace& flows,
                                                         double service_rate) {
  util::require(service_rate > 0.0, "service rate must be positive");
  PacketTrace packets;
  const double packet_spacing = kPacketBytes * 8.0 / service_rate;
  for (const FlowRecord& flow : flows) {
    if (flow.bytes <= kPacketBytes) {
      packets.push_back({flow.start_time, flow.client, flow.bytes});
      continue;
    }
    const auto full_packets = static_cast<std::size_t>(flow.bytes / kPacketBytes);
    const double remainder = flow.bytes - static_cast<double>(full_packets) * kPacketBytes;
    for (std::size_t i = 0; i < full_packets; ++i) {
      packets.push_back(
          {flow.start_time + packet_spacing * static_cast<double>(i), flow.client, kPacketBytes});
    }
    if (remainder > 0.0) {
      packets.push_back(
          {flow.start_time + packet_spacing * static_cast<double>(full_packets), flow.client,
           remainder});
    }
  }
  std::sort(packets.begin(), packets.end(),
            [](const PacketRecord& a, const PacketRecord& b) { return a.time < b.time; });
  return packets;
}

}  // namespace insomnia::trace
