#pragma once
// Message-level network simulator with hidden-IP addressing and gateway
// forwarding.
//
// Models exactly the phenomena §V-C.1 of the paper reports:
//   * hosts on "hidden IP" (private) addresses are unreachable from other
//     sites unless their site operates a gateway (the PSC qsocket /
//     Access Gateway Node solution);
//   * gateways do not forward UDP ("it does not support UDP-based
//     traffic");
//   * "routing multiple processes through single, or even a few, gateway
//     nodes can present a bottleneck" — the gateway is a FIFO store-and-
//     forward stage with finite capacity shared by all flows.
//
// Delivery timing per attempt: propagation (latency + truncated-normal
// jitter) + transmission (bytes / bandwidth); lost messages (Bernoulli)
// are retransmitted after an RTO of 3× latency, up to a retry cap.
// Per-flow FIFO ordering is enforced. The caller supplies current time;
// calls must be non-decreasing in time per network instance.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/qos.hpp"

namespace spice::net {

using HostId = std::uint32_t;

enum class Transport { Tcp, Udp };

struct Host {
  std::string site;
  bool hidden_ip = false;  ///< private address; needs a gateway to be reached
};

struct Gateway {
  double capacity_mbps = 1000.0;
  double busy_until = 0.0;       ///< store-and-forward FIFO occupancy
  std::uint64_t forwarded = 0;
  double total_queue_delay = 0.0;
};

enum class PathKind { Loopback, Direct, ViaGateway, Unreachable };

struct SendOutcome {
  bool delivered = false;
  double deliver_at = 0.0;  ///< absolute time, seconds
  std::uint32_t retransmits = 0;
  PathKind path = PathKind::Unreachable;
  std::string failure;  ///< non-empty when !delivered
};

struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t delivered = 0;
  std::uint64_t losses = 0;        ///< individual lost transmissions
  std::uint64_t undeliverable = 0; ///< unreachable or retry-cap exceeded
  double total_latency = 0.0;      ///< sum of (deliver_at − send time), s
};

class Network {
 public:
  explicit Network(std::uint64_t seed);

  HostId add_host(const std::string& site, bool hidden_ip = false);

  /// Give `site` a gateway so its hidden hosts are reachable (TCP only).
  void set_site_gateway(const std::string& site, double capacity_mbps);

  /// Set the QoS of the (symmetric) path between two distinct sites. Hosts
  /// within one site communicate at LAN QoS (local_area()).
  void connect_sites(const std::string& site_a, const std::string& site_b, const QosSpec& qos);

  /// Send `bytes` from one host to another at absolute time `now` (s).
  SendOutcome send(double now, HostId from, HostId to, double bytes,
                   Transport transport = Transport::Tcp);

  [[nodiscard]] const Host& host(HostId id) const;
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] const Gateway* site_gateway(const std::string& site) const;

  /// True if `from` can address `to` at all (public target, same site, or
  /// gatewayed site).
  [[nodiscard]] PathKind classify_path(HostId from, HostId to) const;

  static constexpr std::uint32_t kMaxRetries = 12;

 private:
  [[nodiscard]] const QosSpec& qos_between(const Host& a, const Host& b) const;
  /// Absolute delivery time over one QoS hop starting at `start`, with
  /// transmission serialized on the directed link (`link_key`, empty =
  /// unserialized) and loss/retransmission; sets gave_up when the retry
  /// cap is hit.
  [[nodiscard]] double hop_deliver(double start, const QosSpec& qos, double bytes,
                                   const std::string& link_key, std::uint32_t& retransmits,
                                   bool& gave_up);

  std::vector<Host> hosts_;
  std::unordered_map<std::string, Gateway> gateways_;
  std::unordered_map<std::string, QosSpec> site_links_;  ///< key "a|b", a < b
  QosSpec intra_site_;
  Rng rng_;
  NetworkStats stats_;
  /// FIFO enforcement: last delivery time per directed (from,to) pair.
  std::unordered_map<std::uint64_t, double> last_delivery_;
  /// Link serialization: transmissions on a directed site-pair share the
  /// pipe; key "src>dst". An offered load above the link bandwidth builds
  /// a real queue here — the mechanism behind IMD stalls on slow paths.
  std::unordered_map<std::string, double> link_busy_;
};

}  // namespace spice::net
