#pragma once
// Network quality-of-service specification.
//
// The paper (§II–III) argues interactive MD needs networks with "well
// bounded quality of service in terms of packet latency, jitter and packet
// loss", provided in 2005 by optical lightpaths (UKLight / GLIF) — the
// general-purpose internet was "not acceptable". These specs parameterize
// the message-delivery model in spice::net::Network; the presets encode a
// trans-Atlantic lightpath, the production internet of the era, and a LAN.

#include <string>

namespace spice::net {

struct QosSpec {
  std::string name = "link";
  double latency_ms = 1.0;      ///< one-way propagation, mean
  double jitter_ms = 0.1;       ///< one-way delay stddev (truncated normal)
  double loss_rate = 0.0;       ///< per-message loss probability
  double bandwidth_mbps = 1000; ///< per-flow throughput
};

/// Dedicated trans-Atlantic lightpath (UKLight → TeraGrid via GLIF):
/// speed-of-light latency, negligible jitter and loss, 10 Gbit.
[[nodiscard]] QosSpec lightpath_transatlantic();

/// Production internet path between the UK and the US circa 2005:
/// similar base latency but heavy jitter and real packet loss, shared
/// bandwidth.
[[nodiscard]] QosSpec production_internet_transatlantic();

/// Congested production path (worst case in the paper's argument).
[[nodiscard]] QosSpec congested_internet();

/// Same-machine-room link (simulation co-located with the visualizer —
/// the baseline the paper says is "rather unlikely" to be available).
[[nodiscard]] QosSpec local_area();

}  // namespace spice::net
