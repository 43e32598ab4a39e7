// Network model: QoS presets, delivery timing, loss/retransmission, FIFO
// ordering, hidden-IP reachability and the gateway bottleneck (§V-C.1).

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "net/mpi.hpp"
#include "net/network.hpp"
#include "net/qos.hpp"

namespace {

using namespace spice;
using namespace spice::net;

Network make_two_site_net(const QosSpec& qos, std::uint64_t seed = 1) {
  Network net(seed);
  net.connect_sites("US", "UK", qos);
  return net;
}

TEST(Qos, PresetsEncodeThePapersArgument) {
  const QosSpec light = lightpath_transatlantic();
  const QosSpec internet = production_internet_transatlantic();
  // Lightpath: similar propagation delay but orders of magnitude better
  // jitter, loss and bandwidth.
  EXPECT_LT(light.jitter_ms * 100, internet.jitter_ms);
  EXPECT_LT(light.loss_rate * 100, internet.loss_rate);
  EXPECT_GT(light.bandwidth_mbps, internet.bandwidth_mbps * 10);
}

TEST(Network, LoopbackIsInstant) {
  Network net(1);
  const auto a = net.add_host("US");
  const auto out = net.send(5.0, a, a, 1e6);
  EXPECT_TRUE(out.delivered);
  EXPECT_DOUBLE_EQ(out.deliver_at, 5.0);
  EXPECT_EQ(out.path, PathKind::Loopback);
}

TEST(Network, DeliveryRespectsLatencyAndBandwidth) {
  QosSpec qos{.name = "test", .latency_ms = 50.0, .jitter_ms = 0.0, .loss_rate = 0.0,
              .bandwidth_mbps = 100.0};
  Network net = make_two_site_net(qos);
  const auto us = net.add_host("US");
  const auto uk = net.add_host("UK");
  // 1 MB at 100 Mbit/s = 0.08 s transmission + 0.05 s propagation.
  const auto out = net.send(0.0, us, uk, 1e6);
  ASSERT_TRUE(out.delivered);
  EXPECT_NEAR(out.deliver_at, 0.05 + 0.08, 1e-9);
}

TEST(Network, JitterSpreadsDeliveryTimes) {
  QosSpec qos{.name = "test", .latency_ms = 50.0, .jitter_ms = 10.0, .loss_rate = 0.0,
              .bandwidth_mbps = 1e5};
  Network net = make_two_site_net(qos);
  const auto us = net.add_host("US");
  const auto uk = net.add_host("UK");
  RunningStats delays;
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const auto out = net.send(t, us, uk, 100.0);
    delays.add(out.deliver_at - t);
    t += 1.0;  // spaced out so FIFO never binds
  }
  EXPECT_NEAR(delays.mean(), 0.050, 0.002);
  EXPECT_NEAR(delays.stddev(), 0.010, 0.002);
}

TEST(Network, LossTriggersRetransmissionDelay) {
  QosSpec qos{.name = "lossy", .latency_ms = 10.0, .jitter_ms = 0.0, .loss_rate = 0.5,
              .bandwidth_mbps = 1e5};
  Network net = make_two_site_net(qos, 3);
  const auto us = net.add_host("US");
  const auto uk = net.add_host("UK");
  std::uint64_t retransmits = 0;
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    const auto out = net.send(t, us, uk, 100.0);
    retransmits += out.retransmits;
    if (out.retransmits > 0 && out.delivered) {
      // Each retransmission costs an RTO of 3× latency.
      EXPECT_GE(out.deliver_at - t, out.retransmits * 0.030);
    }
    t += 1.0;
  }
  // ~50% loss → about one retransmission per message on average.
  EXPECT_GT(retransmits, 300u);
  EXPECT_GT(net.stats().losses, 300u);
}

TEST(Network, FifoPerFlow) {
  QosSpec qos{.name = "jittery", .latency_ms = 20.0, .jitter_ms = 15.0, .loss_rate = 0.0,
              .bandwidth_mbps = 1e5};
  Network net = make_two_site_net(qos, 9);
  const auto us = net.add_host("US");
  const auto uk = net.add_host("UK");
  double last = -1.0;
  for (int i = 0; i < 1000; ++i) {
    const auto out = net.send(i * 0.001, us, uk, 100.0);
    ASSERT_TRUE(out.delivered);
    EXPECT_GE(out.deliver_at, last);  // no overtaking within a flow
    last = out.deliver_at;
  }
}

TEST(Network, HiddenIpUnreachableWithoutGateway) {
  Network net = make_two_site_net(lightpath_transatlantic());
  const auto viz = net.add_host("UK");
  const auto hidden = net.add_host("US", /*hidden_ip=*/true);
  EXPECT_EQ(net.classify_path(viz, hidden), PathKind::Unreachable);
  const auto out = net.send(0.0, viz, hidden, 100.0);
  EXPECT_FALSE(out.delivered);
  EXPECT_NE(out.failure.find("hidden IP"), std::string::npos);
  EXPECT_EQ(net.stats().undeliverable, 1u);
}

TEST(Network, HiddenIpReachableInsideOwnSite) {
  // Hidden addresses work fine for intra-machine traffic — the paper's
  // point is that they break *grid* applications.
  Network net(1);
  const auto a = net.add_host("PSC", true);
  const auto b = net.add_host("PSC", true);
  const auto out = net.send(0.0, a, b, 100.0);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.path, PathKind::Direct);
}

TEST(Network, GatewayRestoresReachabilityForTcp) {
  Network net = make_two_site_net(lightpath_transatlantic());
  net.set_site_gateway("US", 1000.0);
  const auto viz = net.add_host("UK");
  const auto hidden = net.add_host("US", true);
  const auto out = net.send(0.0, viz, hidden, 1e5);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.path, PathKind::ViaGateway);
}

TEST(Network, GatewayRejectsUdp) {
  // "it does not support UDP-based traffic" — paper §V-C.1.
  Network net = make_two_site_net(lightpath_transatlantic());
  net.set_site_gateway("US", 1000.0);
  const auto viz = net.add_host("UK");
  const auto hidden = net.add_host("US", true);
  const auto out = net.send(0.0, viz, hidden, 100.0, Transport::Udp);
  EXPECT_FALSE(out.delivered);
  EXPECT_NE(out.failure.find("UDP"), std::string::npos);
  // Direct UDP to a public host is fine.
  const auto pub = net.add_host("US", false);
  EXPECT_TRUE(net.send(0.0, viz, pub, 100.0, Transport::Udp).delivered);
}

TEST(Network, GatewaySerializesConcurrentFlows) {
  // The paper: "routing multiple processes through single ... gateway
  // nodes can present a bottleneck". N simultaneous flows through one
  // gateway must take ~N× the single-flow time.
  QosSpec qos{.name = "fast", .latency_ms = 1.0, .jitter_ms = 0.0, .loss_rate = 0.0,
              .bandwidth_mbps = 1e5};
  Network net = make_two_site_net(qos);
  net.set_site_gateway("UK", 100.0);  // 100 Mbit gateway
  const auto viz = net.add_host("US");
  std::vector<HostId> ranks;
  for (int i = 0; i < 8; ++i) {
    ranks.push_back(net.add_host("UK", true));
  }
  // 8 × 1 MB messages sent at the same instant.
  double last_delivery = 0.0;
  for (const auto r : ranks) {
    const auto out = net.send(0.0, viz, r, 1e6);
    ASSERT_TRUE(out.delivered);
    last_delivery = std::max(last_delivery, out.deliver_at);
  }
  // Each 1 MB forward at 100 Mbit/s takes 0.08 s; eight serialized ≈ 0.64 s.
  EXPECT_GT(last_delivery, 0.6);
  const Gateway* gw = net.site_gateway("UK");
  ASSERT_NE(gw, nullptr);
  EXPECT_EQ(gw->forwarded, 8u);
  EXPECT_GT(gw->total_queue_delay, 0.4);
}

TEST(Network, DirectedLinkSerializesTransmissions) {
  QosSpec qos{.name = "test", .latency_ms = 50.0, .jitter_ms = 0.0, .loss_rate = 0.0,
              .bandwidth_mbps = 100.0};
  Network net = make_two_site_net(qos);
  const auto us1 = net.add_host("US");
  const auto us2 = net.add_host("US");
  const auto uk1 = net.add_host("UK");
  const auto uk2 = net.add_host("UK");
  constexpr double kTransmission = 0.08;  // 1 MB at 100 Mbit/s

  // Two flows share the US→UK pipe: the second transmission starts when
  // the first leaves the wire, one transmission time later.
  const auto first = net.send(0.0, us1, uk1, 1e6);
  const auto second = net.send(0.0, us2, uk2, 1e6);
  ASSERT_TRUE(first.delivered && second.delivered);
  EXPECT_NEAR(first.deliver_at, kTransmission + 0.05, 1e-9);
  EXPECT_NEAR(second.deliver_at, 2 * kTransmission + 0.05, 1e-9);

  // The reverse direction is its own pipe: not delayed by the queue above.
  const auto back = net.send(0.0, uk1, us1, 1e6);
  ASSERT_TRUE(back.delivered);
  EXPECT_NEAR(back.deliver_at, kTransmission + 0.05, 1e-9);

  // Traffic inside one site is not serialized: two 10 MB LAN messages
  // (8 ms each at 10 Gbit/s) sent together arrive together.
  const auto lan_a = net.send(0.0, us1, us2, 1e7);
  const auto lan_b = net.send(0.0, us2, us1, 1e7);
  ASSERT_TRUE(lan_a.delivered && lan_b.delivered);
  EXPECT_LT(lan_a.deliver_at, 0.009);
  EXPECT_LT(lan_b.deliver_at, 0.009);
}

TEST(Network, StatsAccumulate) {
  Network net = make_two_site_net(lightpath_transatlantic());
  const auto us = net.add_host("US");
  const auto uk = net.add_host("UK");
  for (int i = 0; i < 10; ++i) net.send(i, us, uk, 1000.0);
  EXPECT_EQ(net.stats().messages, 10u);
  EXPECT_EQ(net.stats().delivered, 10u);
  EXPECT_GT(net.stats().total_latency, 0.0);
}

TEST(Network, MissingLinkThrows) {
  Network net(1);
  const auto a = net.add_host("US");
  const auto b = net.add_host("JP");
  EXPECT_THROW(net.send(0.0, a, b, 100.0), PreconditionError);
}

// --- invariants across every QoS preset (property tests) ---------------------------

class QosPresetTest : public ::testing::TestWithParam<int> {
 protected:
  static QosSpec preset(int index) {
    switch (index) {
      case 0: return local_area();
      case 1: return lightpath_transatlantic();
      case 2: return production_internet_transatlantic();
      default: return congested_internet();
    }
  }
};

TEST_P(QosPresetTest, DeliveryNeverPrecedesPropagationFloor) {
  const QosSpec qos = preset(GetParam());
  Network net = make_two_site_net(qos, 77);
  const auto a = net.add_host("US");
  const auto b = net.add_host("UK");
  // Floor: we cannot beat zero jitter AND the transmission time; with
  // truncated-normal jitter the delay is ≥ transmission alone.
  const double tx = 1000.0 * 8.0 / (qos.bandwidth_mbps * 1e6);
  for (int i = 0; i < 200; ++i) {
    const auto out = net.send(i * 10.0, a, b, 1000.0);
    ASSERT_TRUE(out.delivered);
    EXPECT_GE(out.deliver_at - i * 10.0, tx - 1e-12);
  }
}

TEST_P(QosPresetTest, StatsAreConsistent) {
  const QosSpec qos = preset(GetParam());
  Network net = make_two_site_net(qos, 78);
  const auto a = net.add_host("US");
  const auto b = net.add_host("UK");
  for (int i = 0; i < 300; ++i) net.send(i * 1.0, a, b, 500.0);
  const NetworkStats& stats = net.stats();
  EXPECT_EQ(stats.messages, 300u);
  EXPECT_EQ(stats.delivered + stats.undeliverable, 300u);
  EXPECT_GE(stats.total_latency, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, QosPresetTest, ::testing::Values(0, 1, 2, 3));

// --- cross-site MPI model (§V-C.1, the MPICH-G2 scenario) -------------------------

MpiJobConfig two_site_job(bool hidden_second_site) {
  MpiJobConfig config;
  config.placement = {{"NCSA", 4, false}, {"PSC", 4, hidden_second_site}};
  config.iterations = 5;
  config.compute_seconds_per_iteration = 0.05;
  return config;
}

TEST(MpiJob, SingleSiteJobIsComputeBound) {
  Network net(3);
  MpiJobConfig config;
  config.placement = {{"NCSA", 8, false}};
  const MpiRunResult result = run_mpi_job(net, config);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.total_ranks, 8);
  EXPECT_EQ(result.wan_messages, 0u);
  EXPECT_LT(result.communication_fraction(), 0.1);
}

TEST(MpiJob, HiddenIpRanksMakeCrossSiteJobInfeasible) {
  // "MPI applications ... fall particular prey to hidden IP addresses."
  Network net(3);
  net.connect_sites("NCSA", "PSC", lightpath_transatlantic());
  const MpiRunResult result = run_mpi_job(net, two_site_job(/*hidden=*/true));
  EXPECT_FALSE(result.feasible);
  EXPECT_NE(result.failure.find("hidden IP"), std::string::npos);
}

TEST(MpiJob, GatewayMakesHiddenJobFeasibleButSlower) {
  Network with_gw(3);
  with_gw.connect_sites("NCSA", "PSC", lightpath_transatlantic());
  with_gw.set_site_gateway("PSC", 500.0);
  const MpiRunResult gw = run_mpi_job(with_gw, two_site_job(true));
  ASSERT_TRUE(gw.feasible);

  Network open(3);
  open.connect_sites("NCSA", "PSC", lightpath_transatlantic());
  const MpiRunResult direct = run_mpi_job(open, two_site_job(false));
  ASSERT_TRUE(direct.feasible);

  EXPECT_GT(gw.wall_seconds, direct.wall_seconds);
}

TEST(MpiJob, UdpJobCannotUseGateway) {
  Network net(3);
  net.connect_sites("NCSA", "PSC", lightpath_transatlantic());
  net.set_site_gateway("PSC", 500.0);
  MpiJobConfig config = two_site_job(true);
  config.transport = Transport::Udp;
  const MpiRunResult result = run_mpi_job(net, config);
  EXPECT_FALSE(result.feasible);
}

TEST(MpiJob, CrossSiteCommunicationCostsLatency) {
  Network wan(3);
  wan.connect_sites("NCSA", "PSC", lightpath_transatlantic());
  const MpiRunResult split = run_mpi_job(wan, two_site_job(false));
  ASSERT_TRUE(split.feasible);
  EXPECT_GT(split.wan_messages, 0u);

  Network lan(3);
  MpiJobConfig local;
  local.placement = {{"NCSA", 8, false}};
  local.iterations = 5;
  local.compute_seconds_per_iteration = 0.05;
  const MpiRunResult same_site = run_mpi_job(lan, local);
  EXPECT_GT(split.communication_seconds, same_site.communication_seconds);
}

}  // namespace
