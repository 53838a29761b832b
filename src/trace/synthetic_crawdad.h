// Synthetic stand-in for the UCSD CRAWDAD wireless traces used by the paper
// (272 clients, 40 APs, 24 h). Real residential packet traces are not
// publicly available, so — per the paper's own argument in §2.4 — we target
// the published aggregate statistics instead:
//
//   * diurnal downlink utilization peaking around 7 % of a 6 Mbps backhaul
//     at 16-17 h and well under 1.5 % at night (Fig. 3),
//   * at peak hour, more than 80 % of a gateway's idle time made up of
//     inter-packet gaps shorter than 60 s despite ~1 % utilization (Fig. 4),
//   * heavy-tailed flow sizes with continuous light "presence" traffic.
//
// The model: each client alternates offline/online periods driven by a
// non-homogeneous Poisson session process (thinned against the diurnal
// profile). While online it issues web-like transfers with bounded-Pareto
// sizes and, between them, small keep-alive exchanges that realise the
// "continuous light traffic" of §2.4.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/random.h"
#include "trace/diurnal.h"
#include "trace/records.h"

namespace insomnia::trace {

/// Tunable parameters of the synthetic client behaviour model. Defaults are
/// calibrated against the paper's published statistics (see trace tests).
struct SyntheticTraceConfig {
  int client_count = 272;                 ///< number of wireless clients
  double duration = 86400.0;              ///< trace length in seconds
  DiurnalProfile profile = DiurnalProfile::ucsd_office();

  /// Per-client session start rate (sessions/s) when the diurnal intensity
  /// is 1. With mean session length ~40 min this yields ~30 % of clients
  /// online at the peak hour.
  double session_rate_at_peak = 1.4e-4;

  /// Session lengths are log-normal; these are the parameters of the
  /// underlying normal (median exp(mu) ≈ 28 min, heavy right tail).
  double session_length_mu = 7.45;
  double session_length_sigma = 0.8;

  /// Mean spacing of web-like transfer starts within a session (s).
  double flow_gap_mean = 30.0;

  /// Bounded-Pareto flow sizes (bytes).
  double flow_size_alpha = 1.12;
  double flow_size_min = 1.5e5;
  double flow_size_max = 1.2e8;

  /// Mean spacing of keep-alive/presence packets within a session (s) and
  /// their size range (bytes). These defeat Sleep-on-Idle exactly as the
  /// paper describes.
  double keepalive_gap_mean = 15.0;
  double keepalive_bytes_min = 120.0;
  double keepalive_bytes_max = 600.0;

  /// A fraction of clients are "always-on presence" machines that stay
  /// online all day emitting keep-alives (§2.4: "leaving a machine on to
  /// maintain online presence") and only occasionally real transfers.
  /// ~1.5 % of 272 clients leaves a handful of gateways pinned awake at
  /// night, matching Fig. 7's SoI floor of a few online gateways.
  double always_on_fraction = 0.015;
  /// Flow-gap multiplier for the always-on machines (they mostly idle).
  double always_on_flow_gap_factor = 12.0;
};

/// A day's records in emission order, held in fixed-capacity blocks.
/// Appending never moves what is already stored, so emitting a day costs no
/// regrowth copies and leaves at most one block of slack.
struct FlowChunks {
  static constexpr std::size_t kRecordsPerChunk = 16 * 1024;

  std::vector<std::vector<FlowRecord>> chunks;  ///< full blocks, then the last one

  void push_back(const FlowRecord& record) {
    if (chunks.empty() || chunks.back().size() == kRecordsPerChunk) {
      chunks.emplace_back().reserve(kRecordsPerChunk);
    }
    chunks.back().push_back(record);
  }

  /// Records held across all blocks.
  std::size_t size() const;
};

/// One stable counting pass: returns `records` ordered by start_time, equal
/// start times in append order. Record t goes to bucket
/// min(floor(t * n / duration), n - 1) of n = records.size() buckets; the
/// index is monotone in t, so bucket order is time order, and an insertion
/// pass orders each bucket (about one record on average). Each block is
/// freed once scattered. Throws util::InvalidArgument unless duration is
/// finite and positive, every start_time lies in [0, duration) and n fits
/// the pass's 32-bit offsets.
FlowTrace order_by_start_time(FlowChunks records, double duration);

/// Generates FlowTrace / PacketTrace pairs from the behaviour model.
class SyntheticCrawdadGenerator {
 public:
  /// Throws util::InvalidArgument on a non-positive client count, a
  /// non-finite or non-positive duration, or bad flow-size bounds.
  explicit SyntheticCrawdadGenerator(SyntheticTraceConfig config);

  /// Generates the full-day flow trace, sorted by start time. Keep-alives
  /// appear as small flows — they are traffic and reset idle timers, which
  /// is precisely the phenomenon under study.
  ///
  /// Tie rule: records with equal start times keep emission order — by
  /// client, and within a session web transfers before keep-alives. This is
  /// emit() followed by order_by_start_time(), so no step depends on the
  /// standard library's unspecified std::sort order.
  FlowTrace generate(sim::Random& rng) const;

  /// The day's records in emission order (client by client; per session,
  /// web transfers then keep-alives), before ordering. Draws exactly what
  /// generate() draws from `rng`.
  FlowChunks emit(sim::Random& rng) const;

  /// Expands a flow trace into a packet trace: each flow is emitted as
  /// back-to-back 1500 B packets at `service_rate` bits/s (the backhaul
  /// speed), keep-alive flows as single packets. Used by the Fig. 3/4
  /// analyses only.
  static PacketTrace expand_to_packets(const FlowTrace& flows, double service_rate);

  const SyntheticTraceConfig& config() const { return config_; }

 private:
  /// Appends one client's day of flows to `out`.
  void generate_client(int client, bool always_on, sim::Random& rng, FlowChunks& out) const;

  /// Appends flows for a single online session spanning [start, end).
  /// `flow_gap` is the mean web-transfer spacing for this session.
  void generate_session(int client, double start, double end, double flow_gap,
                        sim::Random& rng, FlowChunks& out) const;

  SyntheticTraceConfig config_;
  sim::BoundedPareto flow_size_;
};

}  // namespace insomnia::trace
