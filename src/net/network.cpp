#include "net/network.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace spice::net {

Network::Network(std::uint64_t seed) : intra_site_(local_area()), rng_(Rng::stream(seed, 0x6e6574)) {}

HostId Network::add_host(const std::string& site, bool hidden_ip) {
  SPICE_REQUIRE(!site.empty(), "host needs a site");
  hosts_.push_back(Host{site, hidden_ip});
  return static_cast<HostId>(hosts_.size() - 1);
}

void Network::set_site_gateway(const std::string& site, double capacity_mbps) {
  SPICE_REQUIRE(capacity_mbps > 0.0, "gateway capacity must be positive");
  gateways_[site] = Gateway{capacity_mbps, 0.0, 0, 0.0};
}

namespace {
std::string link_key(const std::string& a, const std::string& b) {
  return a < b ? a + "|" + b : b + "|" + a;
}
}  // namespace

void Network::connect_sites(const std::string& site_a, const std::string& site_b,
                            const QosSpec& qos) {
  SPICE_REQUIRE(site_a != site_b,
                "intra-site traffic always runs at LAN QoS; connect two distinct sites");
  site_links_[link_key(site_a, site_b)] = qos;
}

const Host& Network::host(HostId id) const {
  SPICE_REQUIRE(id < hosts_.size(), "unknown host");
  return hosts_[id];
}

const Gateway* Network::site_gateway(const std::string& site) const {
  const auto it = gateways_.find(site);
  return it == gateways_.end() ? nullptr : &it->second;
}

PathKind Network::classify_path(HostId from, HostId to) const {
  const Host& src = host(from);
  const Host& dst = host(to);
  if (from == to) return PathKind::Loopback;
  if (src.site == dst.site) return PathKind::Direct;  // same site: private net
  if (!dst.hidden_ip) return PathKind::Direct;
  if (gateways_.contains(dst.site)) return PathKind::ViaGateway;
  return PathKind::Unreachable;
}

const QosSpec& Network::qos_between(const Host& a, const Host& b) const {
  if (a.site == b.site) return intra_site_;
  const auto it = site_links_.find(link_key(a.site, b.site));
  SPICE_REQUIRE(it != site_links_.end(),
                "no link configured between sites " + a.site + " and " + b.site);
  return it->second;
}

double Network::hop_deliver(double start, const QosSpec& qos, double bytes,
                            const std::string& link_key, std::uint32_t& retransmits,
                            bool& gave_up) {
  const double transmission = bytes * 8.0 / (qos.bandwidth_mbps * 1e6);  // s
  const double rto = 3.0 * qos.latency_ms * 1e-3;
  double t = start;
  for (std::uint32_t attempt = 0; attempt <= kMaxRetries; ++attempt) {
    // Serialize the transmission on the shared directed pipe: offered load
    // above the link rate queues here.
    if (!link_key.empty()) {
      double& busy = link_busy_[link_key];
      const double tx_start = std::max(t, busy);
      busy = tx_start + transmission;
      t = tx_start + transmission;
    } else {
      t += transmission;
    }
    const double jittered =
        std::max(0.0, rng_.gaussian(qos.latency_ms, qos.jitter_ms)) * 1e-3;
    if (!rng_.bernoulli(qos.loss_rate)) {
      return t + jittered;
    }
    ++stats_.losses;
    ++retransmits;
    t += rto;
  }
  gave_up = true;
  return t;
}

SendOutcome Network::send(double now, HostId from, HostId to, double bytes,
                          Transport transport) {
  SPICE_REQUIRE(bytes >= 0.0, "negative message size");
  ++stats_.messages;
  SendOutcome out;
  out.path = classify_path(from, to);

  if (out.path == PathKind::Loopback) {
    out.delivered = true;
    out.deliver_at = now;
    ++stats_.delivered;
    return out;
  }
  if (out.path == PathKind::Unreachable) {
    out.failure = "destination host has a hidden IP address and its site has no gateway";
    ++stats_.undeliverable;
    return out;
  }
  if (out.path == PathKind::ViaGateway && transport == Transport::Udp) {
    // The PSC gateway solution "does not support UDP-based traffic".
    out.failure = "gateway does not forward UDP traffic";
    ++stats_.undeliverable;
    return out;
  }

  const Host& src = host(from);
  const Host& dst = host(to);
  const QosSpec& qos = qos_between(src, dst);

  bool gave_up = false;
  const std::string link_key =
      src.site == dst.site ? std::string{} : src.site + ">" + dst.site;
  double t = hop_deliver(now, qos, bytes, link_key, out.retransmits, gave_up);
  if (gave_up) {
    out.failure = "retry limit exceeded on lossy path " + qos.name;
    ++stats_.undeliverable;
    return out;
  }

  if (out.path == PathKind::ViaGateway) {
    // Store-and-forward through the site gateway: FIFO over its capacity,
    // then a LAN hop to the hidden host.
    Gateway& gw = gateways_[dst.site];
    const double start = std::max(t, gw.busy_until);
    gw.total_queue_delay += start - t;
    const double forward = bytes * 8.0 / (gw.capacity_mbps * 1e6);
    gw.busy_until = start + forward;
    ++gw.forwarded;
    t = start + forward;
    bool lan_gave_up = false;
    t = hop_deliver(t, intra_site_, bytes, {}, out.retransmits, lan_gave_up);
    if (lan_gave_up) {
      out.failure = "retry limit exceeded on gateway LAN hop";
      ++stats_.undeliverable;
      return out;
    }
  }

  // Per-flow FIFO: a message cannot overtake an earlier one.
  const std::uint64_t flow = (static_cast<std::uint64_t>(from) << 32) | to;
  auto& last = last_delivery_[flow];
  t = std::max(t, last);
  last = t;

  out.delivered = true;
  out.deliver_at = t;
  ++stats_.delivered;
  stats_.total_latency += t - now;
  return out;
}

}  // namespace spice::net
