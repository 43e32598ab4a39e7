// E8 — §V-C.1 hidden-IP addresses and gateway forwarding:
//
//   "the hidden IP addresses severely undermines the computer's
//    contribution to the grid ... [the PSC solution] does not support
//    UDP-based traffic and routing multiple processes through single, or
//    even a few, gateway nodes can present a bottleneck."
//
// Sweep: N simulation ranks on a hidden-IP machine stream to an external
// visualizer, (a) with no gateway (unreachable), (b) through one gateway
// (serialized), (c) the counterfactual public-address machine (direct).

#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <vector>

#include "claims.hpp"
#include "net/network.hpp"
#include "net/qos.hpp"
#include "viz/series_writer.hpp"

using namespace spice;
using namespace spice::claims;
using namespace spice::net;

namespace {

struct Throughput {
  double aggregate_mbps = 0.0;
  std::uint64_t undeliverable = 0;
  double gateway_queue_s = 0.0;
};

/// Each of `ranks` hosts sends `messages` x 1 MB to the visualizer over
/// one simulated second of sends; returns achieved aggregate throughput.
Throughput run(int ranks, bool hidden, bool gateway, double gateway_mbps) {
  Network net(13);
  net.connect_sites("PSC", "UCL", lightpath_transatlantic());
  if (gateway) net.set_site_gateway("PSC", gateway_mbps);
  const auto viz = net.add_host("UCL");
  std::vector<HostId> senders;
  for (int r = 0; r < ranks; ++r) {
    senders.push_back(net.add_host("PSC", hidden));
  }
  constexpr double kBytes = 1e6;
  constexpr int kMessages = 10;
  double last_delivery = 0.0;
  double delivered_bytes = 0.0;
  for (int m = 0; m < kMessages; ++m) {
    for (const auto s : senders) {
      // viz → rank direction is what needs the gateway (hidden target);
      // model the visualizer fanning control data to every rank.
      const auto out = net.send(m * 0.1, viz, s, kBytes);
      if (out.delivered) {
        delivered_bytes += kBytes;
        last_delivery = std::max(last_delivery, out.deliver_at);
      }
    }
  }
  Throughput t;
  t.undeliverable = net.stats().undeliverable;
  if (last_delivery > 0.0) t.aggregate_mbps = delivered_bytes * 8.0 / last_delivery / 1e6;
  if (const Gateway* gw = net.site_gateway("PSC")) t.gateway_queue_s = gw->total_queue_delay;
  return t;
}

}  // namespace

void spice::claims::gateway(Claim& claim) {
  std::printf("\n--- No gateway: hidden ranks are simply unreachable ---\n");
  const Throughput unreachable = run(8, true, false, 0.0);
  std::printf("8 hidden ranks, no gateway: %" PRIu64 " undeliverable messages, %.1f Mbit/s\n",
              unreachable.undeliverable, unreachable.aggregate_mbps);

  std::printf("\n--- UDP through the gateway is refused (qsocket limitation) ---\n");
  bool tcp_only = false;
  {
    Network net(1);
    net.connect_sites("PSC", "UCL", lightpath_transatlantic());
    net.set_site_gateway("PSC", 1000.0);
    const auto viz = net.add_host("UCL");
    const auto rank = net.add_host("PSC", true);
    const auto udp = net.send(0.0, viz, rank, 1000.0, Transport::Udp);
    const auto tcp = net.send(0.0, viz, rank, 1000.0, Transport::Tcp);
    std::printf("UDP: delivered=%d (%s)\nTCP: delivered=%d via gateway\n", udp.delivered,
                udp.failure.c_str(), tcp.delivered);
    tcp_only = tcp.delivered && !udp.delivered;
  }

  std::printf("\n--- Gateway bottleneck: aggregate throughput vs rank count ---\n");
  std::printf("    (a 200 Mbit user-space forwarder in front of a 10 Gbit lightpath —\n");
  std::printf("     the qsocket relay forwarded in user space, far below line rate)\n");
  viz::Table table({"ranks", "direct_mbps", "gateway_mbps", "gateway_penalty_x",
                    "gw_queue_s"});
  double penalty8 = 0.0;
  for (const int ranks : {1, 2, 4, 8, 16, 32}) {
    const Throughput direct = run(ranks, false, false, 0.0);
    const Throughput via_gw = run(ranks, true, true, 200.0);
    const double penalty = direct.aggregate_mbps / std::max(via_gw.aggregate_mbps, 1e-9);
    if (ranks == 8) penalty8 = penalty;
    table.add_row({static_cast<double>(ranks), direct.aggregate_mbps,
                   via_gw.aggregate_mbps, penalty, via_gw.gateway_queue_s});
  }
  table.write_pretty(std::cout, 2);

  claim.check(unreachable.undeliverable > 0,
              "hidden-IP hosts unreachable without a gateway");
  claim.check(tcp_only, "gateway restores TCP reachability but not UDP");
  claim.check(penalty8 > 1.5, fmt("multi-rank traffic through one gateway is a bottleneck "
                                  "(8-rank penalty %.1fx > 1.5x)",
                                  penalty8));
}
