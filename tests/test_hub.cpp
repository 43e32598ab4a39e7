// spice::hub — frame ring, delta codec, broker backpressure/resync,
// steering arbitration, and end-to-end session determinism/replay.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "hub/codec.hpp"
#include "hub/frame_ring.hpp"
#include "hub/harness.hpp"
#include "hub/hub.hpp"
#include "net/network.hpp"
#include "net/qos.hpp"
#include "pore/system.hpp"
#include "steering/session_log.hpp"
#include "steering/steerable.hpp"
#include "testkit/golden.hpp"

namespace {

using namespace spice;
using namespace spice::hub;

steering::SteerableSimulation make_sim(std::uint64_t seed, std::size_t threads = 1,
                                       int nucleotides = 6) {
  spice::pore::TranslocationConfig config;
  config.dna.nucleotides = nucleotides;
  config.equilibration_steps = 200;
  config.md.seed = seed;
  config.md.threads = threads;
  auto system = spice::pore::build_translocation_system(config);
  return steering::SteerableSimulation(std::move(system.engine),
                                       {system.dna_selection.front()});
}

// --- frame ring --------------------------------------------------------------

FrameSnapshot model_frame(double full_bytes = 1000.0) {
  FrameSnapshot f;
  f.full_bytes = full_bytes;
  return f;
}

TEST(FrameRing, AssignsSequentialIdsAndEvictsOldest) {
  FrameRing ring(4);
  EXPECT_EQ(ring.newest_id(), kNoFrame);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(ring.publish(model_frame()), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(ring.newest_id(), 5u);
  EXPECT_EQ(ring.oldest_id(), 2u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.peak_size(), 4u);
  EXPECT_EQ(ring.evicted(), 2u);
  EXPECT_EQ(ring.find(1), nullptr);  // evicted
  ASSERT_NE(ring.find(4), nullptr);
  EXPECT_EQ(ring.find(4)->frame_id, 4u);
  EXPECT_EQ(ring.find(99), nullptr);  // never published
}

TEST(FrameRing, RejectsZeroCapacity) {
  EXPECT_THROW(FrameRing(0), PreconditionError);
}

// --- codec -------------------------------------------------------------------

FrameSnapshot positions_frame(std::uint64_t id, const std::vector<Vec3>& xs) {
  FrameSnapshot f;
  f.frame_id = id;
  f.positions = xs;
  return f;
}

TEST(Codec, ChainedDeltasStayExactWithinQuantum) {
  // The decisive property of integer-domain deltas: after ANY number of
  // chained deltas the reconstruction equals the encoder's quantized
  // coordinates exactly, so the error stays <= quantum/2 forever.
  const CodecConfig cc{.keyframe_interval = 100, .quantum_A = 1e-3};
  SnapshotCodec codec(cc);
  DeltaDecoder decoder(cc);

  std::vector<Vec3> xs(20);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = {0.1 * static_cast<double>(i), -3.0, 7.7};
  }
  auto base = positions_frame(0, xs);
  decoder.apply(codec.encode_keyframe(base));

  for (std::uint64_t step = 1; step <= 12; ++step) {
    for (auto& p : xs) {
      p.x += 0.0137;
      p.y -= 0.0021;
      p.z += 0.1003;
    }
    if (step == 7) xs[3].z += 100.0;  // large jump: exercises the escape path
    auto target = positions_frame(step, xs);
    const EncodedUpdate delta = codec.encode_delta(base, target);
    EXPECT_EQ(delta.kind, UpdateKind::Delta);
    decoder.apply(delta);
    base = std::move(target);
  }

  EXPECT_EQ(decoder.frame_id(), 12u);
  const auto decoded = decoder.positions();
  ASSERT_EQ(decoded.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(decoded[i].x, xs[i].x, 0.5 * cc.quantum_A + 1e-12);
    EXPECT_NEAR(decoded[i].y, xs[i].y, 0.5 * cc.quantum_A + 1e-12);
    EXPECT_NEAR(decoded[i].z, xs[i].z, 0.5 * cc.quantum_A + 1e-12);
  }
}

TEST(Codec, DecoderRejectsChainBreak) {
  const CodecConfig cc;
  SnapshotCodec codec(cc);
  DeltaDecoder decoder(cc);
  std::vector<Vec3> xs{{1, 2, 3}};
  decoder.apply(codec.encode_keyframe(positions_frame(0, xs)));
  // A delta whose base is not the decoder's current frame must throw: the
  // hub's resync logic is what prevents this on a healthy connection.
  const auto d12 = codec.encode_delta(positions_frame(1, xs), positions_frame(2, xs));
  EXPECT_THROW(decoder.apply(d12), Error);
}

TEST(Codec, ModelModeSizesFollowGapModel) {
  const CodecConfig cc{.keyframe_interval = 16, .header_bytes = 64.0,
                       .modeled_delta_fraction = 0.25};
  SnapshotCodec codec(cc);
  FrameSnapshot f0 = model_frame(1e5);
  f0.frame_id = 10;
  FrameSnapshot f1 = model_frame(1e5);
  f1.frame_id = 11;
  FrameSnapshot f5 = model_frame(1e5);
  f5.frame_id = 15;

  EXPECT_DOUBLE_EQ(codec.encode_keyframe(f0).bytes, 64.0 + 1e5);
  EXPECT_DOUBLE_EQ(codec.encode_delta(f0, f1).bytes, 64.0 + 0.25 * 1e5);
  // A coalesced catch-up delta (gap 5) costs more, capped at keyframe size.
  EXPECT_DOUBLE_EQ(codec.encode_delta(f0, f5).bytes, 64.0 + 1e5);
}

// --- broker ------------------------------------------------------------------

struct Delivery {
  ClientId client;
  EncodedUpdate update;
  double at;
};

struct HubFixture {
  net::Network network{17};
  net::HostId hub_host;
  std::vector<net::HostId> client_hosts;
  std::vector<Delivery> deliveries;

  explicit HubFixture(std::size_t clients) {
    const net::QosSpec fast{.name = "fast", .latency_ms = 1.0, .jitter_ms = 0.0,
                            .loss_rate = 0.0, .bandwidth_mbps = 1e5};
    network.connect_sites("H", "C", fast);
    hub_host = network.add_host("H");
    for (std::size_t i = 0; i < clients; ++i) {
      client_hosts.push_back(network.add_host("C"));
    }
  }

  SteeringHub make_hub(HubConfig config) {
    SteeringHub hub(network, hub_host, config);
    hub.set_delivery_sink([this](ClientId c, const EncodedUpdate& u, double at) {
      deliveries.push_back({c, u, at});
    });
    return hub;
  }
};

TEST(SteeringHub, WindowBoundsInFlightAndDeadClientCost) {
  HubFixture fx(1);
  SteeringHub hub = fx.make_hub({});
  SubscriptionConfig sub;
  sub.window = 2;
  const ClientId c = hub.connect(0.0, fx.client_hosts[0], sub);

  // A client that never acks (dead visualizer) receives exactly `window`
  // updates, then nothing — forever. The producer keeps publishing freely.
  for (int i = 0; i < 10; ++i) {
    hub.publish(0.1 * (i + 1), model_frame());
  }
  EXPECT_EQ(fx.deliveries.size(), 2u);
  EXPECT_EQ(hub.client_stats(c).updates_sent, 2u);
  EXPECT_EQ(hub.stats().frames_published, 10u);

  // An ack frees a slot and immediately pulls the client to the newest
  // frame (cumulative ack also clears the second in-flight update).
  hub.on_ack(2.0, c, fx.deliveries[1].update.frame_id);
  ASSERT_EQ(fx.deliveries.size(), 3u);
  EXPECT_EQ(fx.deliveries[2].update.frame_id, 9u);
  EXPECT_EQ(hub.client_stats(c).acks_received, 1u);
  EXPECT_GT(hub.client_stats(c).max_lag_frames, 0u);
}

TEST(SteeringHub, LagBeyondBudgetForcesKeyframeResyncAndCountsDrops) {
  HubFixture fx(1);
  SteeringHub hub = fx.make_hub({});
  SubscriptionConfig sub;
  sub.window = 1;
  sub.lag_budget_frames = 3;
  const ClientId c = hub.connect(0.0, fx.client_hosts[0], sub);

  hub.publish(0.1, model_frame());  // frame 0 → keyframe sent, window full
  for (int i = 0; i < 5; ++i) hub.publish(0.2 + 0.1 * i, model_frame());  // 1..5
  ASSERT_EQ(fx.deliveries.size(), 1u);
  EXPECT_EQ(fx.deliveries[0].update.kind, UpdateKind::Keyframe);

  hub.on_ack(1.0, c, 0);  // gap to newest (5) exceeds the budget of 3
  ASSERT_EQ(fx.deliveries.size(), 2u);
  EXPECT_EQ(fx.deliveries[1].update.kind, UpdateKind::Keyframe);
  EXPECT_EQ(fx.deliveries[1].update.frame_id, 5u);
  EXPECT_EQ(hub.client_stats(c).resyncs, 1u);
  EXPECT_EQ(hub.client_stats(c).frames_dropped, 4u);  // frames 1..4 skipped
}

TEST(SteeringHub, CoalescedCatchupDeltaWithinBudget) {
  HubFixture fx(1);
  HubConfig hc;
  hc.codec.keyframe_interval = 100;  // keep scheduled keyframes out of the way
  SteeringHub hub = fx.make_hub(hc);
  SubscriptionConfig sub;
  sub.window = 1;
  sub.lag_budget_frames = 10;
  const ClientId c = hub.connect(0.0, fx.client_hosts[0], sub);

  std::vector<Vec3> xs{{0, 0, 0}, {1, 1, 1}};
  hub.publish(0.1, positions_frame(0, xs));
  hub.on_ack(0.5, c, 0);  // nothing newer yet: no send
  for (auto& p : xs) p.z += 0.01;
  hub.publish(0.6, positions_frame(0, xs));
  for (auto& p : xs) p.z += 0.01;
  hub.publish(0.7, positions_frame(0, xs));  // window full: frame 2 waits
  ASSERT_EQ(fx.deliveries.size(), 2u);
  EXPECT_EQ(fx.deliveries[1].update.kind, UpdateKind::Delta);
  EXPECT_EQ(fx.deliveries[1].update.frame_id, 1u);

  hub.on_ack(1.0, c, 1);  // catch-up: delta 1 → 2 (gap 1, no drops)
  ASSERT_EQ(fx.deliveries.size(), 3u);
  EXPECT_EQ(fx.deliveries[2].update.kind, UpdateKind::Delta);
  EXPECT_EQ(fx.deliveries[2].update.base_id, 1u);
  EXPECT_EQ(fx.deliveries[2].update.frame_id, 2u);
  EXPECT_EQ(hub.client_stats(c).frames_dropped, 0u);
  EXPECT_EQ(hub.client_stats(c).resyncs, 0u);

  // The client can reconstruct the newest frame through the whole chain.
  DeltaDecoder decoder(hc.codec);
  for (const auto& d : fx.deliveries) decoder.apply(d.update);
  const auto decoded = decoder.positions();
  ASSERT_EQ(decoded.size(), xs.size());
  EXPECT_NEAR(decoded[1].z, xs[1].z, 0.5 * hc.codec.quantum_A + 1e-12);
}

TEST(SteeringHub, EvictedDeltaBaseForcesKeyframe) {
  HubFixture fx(1);
  HubConfig hc;
  hc.ring_capacity = 4;
  hc.codec.keyframe_interval = 1000;
  SteeringHub hub = fx.make_hub(hc);
  SubscriptionConfig sub;
  sub.window = 1;
  sub.lag_budget_frames = 1000;  // the lag budget must NOT be what triggers
  const ClientId c = hub.connect(0.0, fx.client_hosts[0], sub);

  hub.publish(0.1, model_frame());  // frame 0 sent (keyframe), window full
  for (int i = 0; i < 6; ++i) hub.publish(0.2 + 0.1 * i, model_frame());  // 1..6
  EXPECT_EQ(hub.ring().find(0), nullptr);  // base evicted (capacity 4)

  hub.on_ack(2.0, c, 0);
  ASSERT_EQ(fx.deliveries.size(), 2u);
  EXPECT_EQ(fx.deliveries[1].update.kind, UpdateKind::Keyframe);
  EXPECT_EQ(hub.client_stats(c).resyncs, 1u);
}

TEST(SteeringHub, TokenHolderArbitrationWithLeaseExpiry) {
  HubFixture fx(2);
  HubConfig hc;
  hc.arbitration = ArbitrationMode::TokenHolder;
  hc.token_lease_s = 5.0;
  SteeringHub hub = fx.make_hub(hc);
  const ClientId a = hub.connect(0.0, fx.client_hosts[0], {});
  const ClientId b = hub.connect(0.0, fx.client_hosts[1], {});
  hub.publish(0.1, model_frame());

  EXPECT_TRUE(hub.request_token(1.0, a));
  EXPECT_FALSE(hub.request_token(1.5, b));
  EXPECT_EQ(hub.token_holder(), a);
  EXPECT_EQ(hub.submit_command(2.0, b, steering::SteeringMessage::apply_force({0, 0, 1})),
            CommandOutcome::RejectedNotTokenHolder);
  EXPECT_EQ(hub.submit_command(2.0, a, steering::SteeringMessage::apply_force({0, 0, 1})),
            CommandOutcome::Applied);

  // Activity at t=2 renewed the lease to t=7; b is still locked out at 6.9
  // but takes over after expiry.
  EXPECT_FALSE(hub.request_token(6.9, b));
  EXPECT_TRUE(hub.request_token(7.1, b));
  EXPECT_EQ(hub.token_holder(), b);
  EXPECT_EQ(hub.stats().token_expiries, 1u);
  EXPECT_EQ(hub.stats().token_grants, 2u);
  EXPECT_EQ(hub.stats().token_denials, 2u);

  // Release frees the token without an expiry.
  hub.release_token(8.0, b);
  EXPECT_EQ(hub.token_holder(), SteeringHub::kNoClient);
  EXPECT_TRUE(hub.request_token(8.5, a));
}

TEST(SteeringHub, LastWriterWinsAcceptsEveryCommand) {
  HubFixture fx(2);
  HubConfig hc;
  hc.arbitration = ArbitrationMode::LastWriterWins;
  SteeringHub hub = fx.make_hub(hc);
  const ClientId a = hub.connect(0.0, fx.client_hosts[0], {});
  const ClientId b = hub.connect(0.0, fx.client_hosts[1], {});
  hub.publish(0.1, model_frame());
  EXPECT_EQ(hub.submit_command(1.0, a, steering::SteeringMessage::apply_force({0, 0, 1})),
            CommandOutcome::Applied);
  EXPECT_EQ(hub.submit_command(1.1, b, steering::SteeringMessage::apply_force({0, 0, -1})),
            CommandOutcome::Applied);
  EXPECT_EQ(hub.stats().commands_accepted, 2u);
  EXPECT_EQ(hub.stats().commands_rejected, 0u);
}

TEST(SteeringHub, DisconnectedClientIsRejectedAndCostsNothing) {
  HubFixture fx(1);
  SteeringHub hub = fx.make_hub({});
  const ClientId c = hub.connect(0.0, fx.client_hosts[0], {});
  hub.publish(0.1, model_frame());
  const std::size_t sent = fx.deliveries.size();
  hub.disconnect(0.5, c);
  hub.publish(0.6, model_frame());
  EXPECT_EQ(fx.deliveries.size(), sent);
  EXPECT_EQ(hub.submit_command(1.0, c, steering::SteeringMessage::apply_force({0, 0, 1})),
            CommandOutcome::RejectedDisconnected);
  EXPECT_EQ(hub.connected_clients(), 0u);
}

// --- commands drive a real engine, recorded for replay -----------------------

TEST(SteeringHub, RecordedSessionReplaysBitIdentically) {
  net::Network network(23);
  const net::QosSpec fast{.name = "fast", .latency_ms = 1.0, .jitter_ms = 0.0,
                          .loss_rate = 0.0, .bandwidth_mbps = 1e5};
  network.connect_sites("H", "C", fast);
  const auto hub_host = network.add_host("H");
  const auto viz = network.add_host("C");

  steering::SteerableSimulation sim = make_sim(31);
  steering::SessionLog log;
  HubConfig hc;
  hc.arbitration = ArbitrationMode::LastWriterWins;
  SteeringHub hub(network, hub_host, hc, &sim, &log);
  const ClientId c = hub.connect(0.0, viz, {});

  double now = 0.0;
  for (int chunk = 0; chunk < 10; ++chunk) {
    sim.run(40);
    FrameSnapshot frame;
    frame.sim_step = sim.engine().step_count();
    const auto span = sim.engine().positions();
    frame.positions.assign(span.begin(), span.end());
    now += 1.0;
    hub.publish(now, std::move(frame));
    if (chunk % 2 == 0) {
      ASSERT_EQ(hub.submit_command(now, c,
                                   steering::SteeringMessage::apply_force({0, 0, -55.0})),
                CommandOutcome::Applied);
    }
  }
  const auto final_state = sim.engine().checkpoint().bytes;
  EXPECT_EQ(log.size(), 5u);

  // A fresh simulation with the same seed, driven only by the log, lands
  // on the identical final state.
  steering::SteerableSimulation replayed = make_sim(31);
  steering::replay_session(replayed, log, 400);
  EXPECT_EQ(replayed.engine().checkpoint().bytes, final_state);
}

// --- harness-level determinism ----------------------------------------------

HarnessConfig small_model_config() {
  HarnessConfig config;
  config.seed = 99;
  config.total_steps = 400;
  config.steps_per_frame = 10;
  config.seconds_per_step = 0.05;
  config.frame_full_bytes = 5e4;
  config.hub.arbitration = ArbitrationMode::TokenHolder;
  TierSpec fast;
  fast.name = "fast";
  fast.qos = net::lightpath_transatlantic();
  fast.clients = 12;
  fast.render_seconds = 0.01;
  fast.steer_fraction = 0.25;
  fast.steer_period_s = 2.0;
  fast.dead_fraction = 0.1;
  TierSpec slow;
  slow.name = "slow";
  slow.qos = net::congested_internet();
  slow.qos.bandwidth_mbps = 1.0;  // 8 clients × ~12.5 KB per 0.5 s » 1 Mbit
  slow.clients = 8;
  slow.render_seconds = 0.05;
  slow.sub.lag_budget_frames = 4;
  config.tiers = {fast, slow};
  return config;
}

TEST(HubHarness, ModelSessionIsDeterministic) {
  steering::SessionLog log_a, log_b;
  const HubRunMetrics a = HubHarness(small_model_config(), nullptr, &log_a).run();
  const HubRunMetrics b = HubHarness(small_model_config(), nullptr, &log_b).run();

  EXPECT_GT(a.hub.updates_sent, 0u);
  EXPECT_GT(a.hub.commands_accepted, 0u);
  EXPECT_EQ(a.session_log_bytes, b.session_log_bytes);
  EXPECT_EQ(a.hub.updates_sent, b.hub.updates_sent);
  EXPECT_EQ(a.hub.frames_dropped, b.hub.frames_dropped);
  EXPECT_EQ(a.hub.bytes_sent, b.hub.bytes_sent);
  EXPECT_DOUBLE_EQ(a.elapsed_s, b.elapsed_s);
  EXPECT_LE(a.peak_ring, a.ring_capacity);
  // The slow tier lags and resyncs; the fast tier's dead clients cost a
  // bounded number of in-flight updates.
  EXPECT_GT(a.hub.resyncs, 0u);
}

TEST(HubHarness, RealEngineSessionIsThreadCountInvariant) {
  HarnessConfig config = small_model_config();
  config.total_steps = 200;
  config.tiers[0].clients = 4;
  config.tiers[1].clients = 2;
  config.tiers[0].steer_fraction = 0.5;
  config.tiers[0].steer_period_s = 1.0;

  auto run_with_threads = [&](std::size_t threads) {
    // 40 beads give two force slices, so the 8-thread run really splits
    // the force evaluation across workers (a one-slice system never
    // leaves the calling thread).
    steering::SteerableSimulation sim = make_sim(7, threads, 40);
    EXPECT_EQ(sim.engine().force_slice_count(), 2u);
    steering::SessionLog log;
    const HubRunMetrics m = HubHarness(config, &sim, &log).run();
    return std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>(
        log.serialize(), sim.engine().checkpoint().bytes);
  };

  const auto [log1, state1] = run_with_threads(1);
  const auto [log8, state8] = run_with_threads(8);
  EXPECT_FALSE(log1.empty());
  // Same seed ⇒ bit-identical session log AND final engine state at 1 and
  // 8 engine threads: the hub's event order is thread-count independent.
  EXPECT_EQ(testkit::fnv1a64(log1), testkit::fnv1a64(log8));
  EXPECT_EQ(testkit::fnv1a64(state1), testkit::fnv1a64(state8));
  EXPECT_EQ(log1, log8);
  EXPECT_EQ(state1, state8);
}

}  // namespace
