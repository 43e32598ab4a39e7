// Steering framework: registry discovery, message application at step
// boundaries, checkpoint/clone semantics, the IMD session's flow control
// under different QoS, and the haptic-device model.

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "md/engine.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "pore/system.hpp"
#include "steering/haptic.hpp"
#include "steering/imd.hpp"
#include "steering/messages.hpp"
#include "steering/registry.hpp"
#include "steering/session_log.hpp"
#include "steering/steerable.hpp"

namespace {

using namespace spice;
using namespace spice::steering;

// --- registry ----------------------------------------------------------------

TEST(Registry, PublishLookupUnpublish) {
  ServiceRegistry registry;
  registry.publish({"sim-a", ComponentKind::Simulation, 3});
  registry.publish({"viz-1", ComponentKind::Visualizer, 7});
  const auto rec = registry.lookup("sim-a");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->host, 3u);
  EXPECT_FALSE(registry.lookup("nope").has_value());
  registry.unpublish("sim-a");
  EXPECT_FALSE(registry.lookup("sim-a").has_value());
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, ListByKindIsSortedAndFiltered) {
  ServiceRegistry registry;
  registry.publish({"z-sim", ComponentKind::Simulation, 1});
  registry.publish({"a-sim", ComponentKind::Simulation, 2});
  registry.publish({"viz", ComponentKind::Visualizer, 3});
  const auto sims = registry.list(ComponentKind::Simulation);
  ASSERT_EQ(sims.size(), 2u);
  EXPECT_EQ(sims[0].name, "a-sim");
  EXPECT_EQ(sims[1].name, "z-sim");
}

// --- steerable simulation -------------------------------------------------------

SteerableSimulation make_steerable(std::uint64_t seed = 1) {
  spice::pore::TranslocationConfig config;
  config.dna.nucleotides = 6;
  config.equilibration_steps = 200;
  config.md.seed = seed;
  auto system = spice::pore::build_translocation_system(config);
  return SteerableSimulation(std::move(system.engine),
                             {system.dna_selection.front()});
}

TEST(Steerable, PauseAndResume) {
  SteerableSimulation sim = make_steerable();
  sim.deliver(SteeringMessage::pause());
  EXPECT_EQ(sim.run(50), 0u);  // message applied at first boundary → no steps
  EXPECT_TRUE(sim.paused());
  sim.deliver(SteeringMessage::resume());
  EXPECT_EQ(sim.run(50), 50u);
}

TEST(Steerable, StopIsTerminal) {
  SteerableSimulation sim = make_steerable();
  sim.deliver(SteeringMessage::stop());
  EXPECT_EQ(sim.run(10), 0u);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.run(10), 0u);
}

TEST(Steerable, ApplyForceChangesTrajectory) {
  SteerableSimulation a = make_steerable(42);
  SteerableSimulation b = make_steerable(42);
  b.deliver(SteeringMessage::apply_force({0, 0, -80.0}));
  a.run(400);
  b.run(400);
  // The steered copy is pushed down the pore relative to the unsteered one.
  EXPECT_LT(b.steered_com_z(), a.steered_com_z());
}

TEST(Steerable, MonitoredParametersArePopulated) {
  SteerableSimulation sim = make_steerable();
  sim.run(20);
  auto params = sim.monitored_parameters();
  EXPECT_GT(params.at("temperature_K"), 0.0);
  // 200 equilibration steps inside make_steerable + 20 run here.
  EXPECT_DOUBLE_EQ(params.at("step"), 220.0);
  EXPECT_NE(params.find("steered_com_z"), params.end());
}

TEST(Steerable, SteerableParameterDispatch) {
  SteerableSimulation sim = make_steerable();
  double captured = 0.0;
  sim.register_steerable("pull_velocity", [&](double v) { captured = v; });
  EXPECT_EQ(sim.steerable_names(), std::vector<std::string>{"pull_velocity"});
  sim.deliver(SteeringMessage::set_parameter("pull_velocity", 25.0));
  sim.run(1);
  EXPECT_DOUBLE_EQ(captured, 25.0);
}

TEST(Steerable, UnknownParameterThrowsOnApplication) {
  SteerableSimulation sim = make_steerable();
  sim.deliver(SteeringMessage::set_parameter("warp_factor", 9.0));
  EXPECT_THROW(sim.run(1), PreconditionError);
}

TEST(Steerable, CheckpointRestoreViaMessages) {
  SteerableSimulation sim = make_steerable();
  sim.run(100);
  sim.deliver(SteeringMessage::take_checkpoint("before"));
  sim.run(1);  // applies the message
  ASSERT_TRUE(sim.has_checkpoint("before"));
  const double z_before = sim.steered_com_z();
  sim.run(300);
  sim.restore_checkpoint("before");
  EXPECT_NEAR(sim.steered_com_z(), z_before, 0.2);  // one step of drift allowed
}

TEST(Steerable, CloneExploresIndependently) {
  // The paper: checkpoint + clone "for exploring a particular
  // configuration in greater detail" without perturbing the original.
  SteerableSimulation sim = make_steerable(7);
  sim.run(100);
  sim.take_checkpoint("fork");
  SteerableSimulation clone = sim.clone_from("fork", 999);
  const double z0_orig = sim.steered_com_z();
  EXPECT_NEAR(clone.steered_com_z(), z0_orig, 1e-9);  // identical at the fork

  sim.run(300);
  clone.run(300);
  EXPECT_NE(sim.steered_com_z(), clone.steered_com_z());  // then diverge
}

TEST(Steerable, CloneDoesNotPerturbOriginal) {
  SteerableSimulation a = make_steerable(7);
  SteerableSimulation b = make_steerable(7);
  a.run(100);
  b.run(100);
  a.take_checkpoint("fork");
  SteerableSimulation clone = a.clone_from("fork", 999);
  clone.deliver(SteeringMessage::apply_force({0, 0, -200.0}));
  clone.run(100);
  a.run(200);
  b.run(200);  // a and b are both at 300 total steps now
  // a (cloned-from) must match b (never cloned) exactly: the clone's
  // steering force must not leak into the original.
  EXPECT_DOUBLE_EQ(a.steered_com_z(), b.steered_com_z());
}

// --- IMD session -------------------------------------------------------------------

net::Network imd_network(const net::QosSpec& qos, net::HostId& sim, net::HostId& viz) {
  net::Network network(5);
  network.connect_sites("NCSA", "UCL", qos);
  sim = network.add_host("NCSA");
  viz = network.add_host("UCL");
  return network;
}

ImdConfig fast_imd() {
  ImdConfig c;
  c.total_steps = 400;
  c.steps_per_frame = 10;
  c.window = 4;
  c.seconds_per_step = 0.05;
  c.frame_bytes = 3.6e6;
  c.render_seconds = 0.01;
  return c;
}

TEST(ImdSession, LightpathKeepsEfficiencyHigh) {
  net::HostId sim, viz;
  auto network = imd_network(net::lightpath_transatlantic(), sim, viz);
  ImdSession session(network, sim, viz, fast_imd());
  const ImdMetrics m = session.run();
  EXPECT_EQ(m.steps_completed, 400u);
  EXPECT_EQ(m.frames_sent, 40u);
  EXPECT_GT(m.efficiency(), 0.9);
  EXPECT_LT(m.stall_fraction(), 0.1);
}

TEST(ImdSession, CongestedInternetStallsTheSimulation) {
  // §II: "Unreliable communication leads ... a significant slowdown of the
  // simulation as it stalls waiting for data from the visualization."
  net::HostId sim, viz;
  auto network = imd_network(net::congested_internet(), sim, viz);
  ImdSession session(network, sim, viz, fast_imd());
  const ImdMetrics m = session.run();
  EXPECT_EQ(m.steps_completed, 400u);
  EXPECT_GT(m.stall_fraction(), 0.3);
  EXPECT_LT(m.efficiency(), 0.7);
}

TEST(ImdSession, DeadVisualizerStallsViaAckTimeout) {
  // Regression for the window-stall accounting: a dead visualizer (every
  // frame undeliverable, so nothing is ever acked) used to pop its unacked
  // window slots for FREE — the one client that most deserved flow control
  // was exempt from it and the session reported 100% efficiency. Unacked
  // slots now free only at the ack timeout, so once the window fills the
  // simulation demonstrably stalls.
  const net::QosSpec dead{.name = "dead", .latency_ms = 10.0, .jitter_ms = 0.0,
                          .loss_rate = 1.0, .bandwidth_mbps = 100.0};
  net::HostId sim, viz;
  auto network = imd_network(dead, sim, viz);
  ImdConfig config = fast_imd();
  config.ack_timeout_s = 3.0;

  obs::set_metrics_enabled(true);
  obs::Gauge& stall_gauge = obs::metrics().gauge("steering.imd.stall_seconds");
  const double gauge_before = stall_gauge.value();
  ImdSession session(network, sim, viz, config);
  const ImdMetrics m = session.run();
  const double gauge_delta = stall_gauge.value() - gauge_before;
  obs::set_metrics_enabled(false);

  EXPECT_EQ(m.frames_sent, 40u);
  EXPECT_EQ(m.frames_lost, 40u);  // nothing was ever delivered
  // Every window-full pop hit the timeout path; the last `window` frames
  // were still in flight when the session ended.
  EXPECT_EQ(m.frames_timed_out, m.frames_sent - config.window);
  EXPECT_GT(m.stall_seconds, 5.0);  // visibly throttled, not full speed
  // Wall time decomposes exactly into compute + stall: the accounting is
  // complete (no wall advance escapes one of the two buckets).
  EXPECT_NEAR(m.wall_seconds, m.ideal_seconds + m.stall_seconds, 1e-9);
  EXPECT_LT(m.efficiency(), 0.8);
  EXPECT_NEAR(gauge_delta, m.stall_seconds, 1e-9);
}

TEST(ImdSession, WiderWindowToleratesLatency) {
  // Latency-bound (not bandwidth-bound) regime: small frames, fast steps.
  auto config_with_window = [](std::size_t window) {
    ImdConfig c = fast_imd();
    c.seconds_per_step = 0.02;  // frame every 0.2 s
    c.frame_bytes = 1e6;        // 40 Mbit/s offered « 100 Mbit/s link
    c.window = window;
    return c;
  };
  // High-bandwidth but high-latency path: the window, not the pipe, binds.
  const net::QosSpec fat_long_pipe{.name = "fat-long", .latency_ms = 90.0,
                                   .jitter_ms = 5.0, .loss_rate = 0.0,
                                   .bandwidth_mbps = 1000.0};
  net::HostId sim, viz;
  auto net1 = imd_network(fat_long_pipe, sim, viz);
  const ImdMetrics m_tight = ImdSession(net1, sim, viz, config_with_window(1)).run();

  auto net2 = imd_network(fat_long_pipe, sim, viz);
  const ImdMetrics m_wide = ImdSession(net2, sim, viz, config_with_window(16)).run();
  EXPECT_GT(m_wide.efficiency(), m_tight.efficiency());
}

TEST(ImdSession, PolicyCommandsReachTheSimulation) {
  net::HostId sim_host, viz_host;
  auto network = imd_network(net::lightpath_transatlantic(), sim_host, viz_host);
  SteerableSimulation sim = make_steerable(3);
  ImdConfig config = fast_imd();
  config.total_steps = 300;
  ImdSession session(network, sim_host, viz_host, config, &sim);
  session.set_visualizer_policy(
      [](const FrameView&) { return std::optional<Vec3>(Vec3{0, 0, -40.0}); });
  const ImdMetrics m = session.run();
  EXPECT_GT(m.commands_sent, 0u);
  EXPECT_GT(m.commands_applied, 0u);
  EXPECT_LE(m.commands_applied, m.commands_sent);
}

TEST(ImdSession, SteeringActuallyMovesTheStrand) {
  net::HostId sim_host, viz_host;
  auto network = imd_network(net::lightpath_transatlantic(), sim_host, viz_host);
  SteerableSimulation steered = make_steerable(11);
  const double z0 = steered.steered_com_z();
  ImdConfig config = fast_imd();
  config.total_steps = 800;
  ImdSession session(network, sim_host, viz_host, config, &steered);
  session.set_visualizer_policy(
      [](const FrameView&) { return std::optional<Vec3>(Vec3{0, 0, -60.0}); });
  session.run();
  EXPECT_LT(steered.steered_com_z(), z0 - 0.5);
}

// --- session log & replay ------------------------------------------------------------

TEST(SessionLog, RecordsInOrderAndSerializes) {
  SessionLog log;
  log.record(10, SteeringMessage::apply_force({0, 0, -5.0}));
  log.record(20, SteeringMessage::pause());
  log.record(20, SteeringMessage::resume());
  EXPECT_EQ(log.size(), 3u);
  EXPECT_THROW(log.record(5, SteeringMessage::stop()), PreconditionError);

  const auto bytes = log.serialize();
  const SessionLog copy = SessionLog::deserialize(bytes);
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy.entries()[0].step, 10u);
  EXPECT_EQ(copy.entries()[0].message.type, MessageType::ApplyForce);
  EXPECT_DOUBLE_EQ(copy.entries()[0].message.force.z, -5.0);
  EXPECT_EQ(copy.entries()[2].message.type, MessageType::Resume);
}

TEST(SessionLog, DeserializeRejectsGarbage) {
  const std::vector<std::uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_THROW(SessionLog::deserialize(junk), Error);
}

TEST(SessionReplay, ReproducesSteeredTrajectoryExactly) {
  // Record an interactively steered run, then replay the log on a fresh
  // simulation with the same seed: trajectories must match bit-for-bit.
  SessionLog log;
  SteerableSimulation live = make_steerable(404);
  RecordingSteerer steerer(live, log);
  live.run(50);
  steerer.steer(SteeringMessage::apply_force({0, 0, -60.0}));
  live.run(100);
  steerer.steer(SteeringMessage::apply_force({0, 0, 15.0}));
  live.run(100);
  steerer.steer(SteeringMessage::apply_force({0, 0, 0.0}));
  live.run(150);
  const double z_live = live.steered_com_z();

  SteerableSimulation replayed = make_steerable(404);
  const std::size_t taken = replay_session(replayed, log, 400);
  EXPECT_EQ(taken, 400u);
  EXPECT_DOUBLE_EQ(replayed.steered_com_z(), z_live);
}

TEST(SessionReplay, HonorsPauseWithoutSpinning) {
  SteerableSimulation sim = make_steerable(7);
  SessionLog log;
  log.record(sim.engine().step_count() + 10, SteeringMessage::pause());
  const std::size_t taken = replay_session(sim, log, 100);
  EXPECT_LE(taken, 11u);  // stopped at the pause
  EXPECT_TRUE(sim.paused());
}

TEST(SessionReplay, EmptyLogJustRuns) {
  SessionLog log;
  SteerableSimulation sim = make_steerable(7);
  EXPECT_EQ(replay_session(sim, log, 75), 75u);
}

// --- haptic device -------------------------------------------------------------------

TEST(Haptic, ForceSaturatesAtDeviceLimit) {
  HapticParams params;
  params.max_force = 10.0;
  params.target_z = -100.0;
  params.tremor_stddev = 0.0;
  HapticDevice device(params);
  FrameView view;
  view.steered_com_z = 0.0;  // far from target → would want a huge force
  const auto force = device.update(view);
  ASSERT_TRUE(force.has_value());
  EXPECT_DOUBLE_EQ(force->z, -10.0);
}

TEST(Haptic, PullsTowardTarget) {
  HapticParams params;
  params.target_z = -20.0;
  params.tremor_stddev = 0.0;
  HapticDevice device(params);
  FrameView above;
  above.steered_com_z = -10.0;
  EXPECT_LT(device.update(above)->z, 0.0);  // push down
  FrameView below;
  below.steered_com_z = -30.0;
  EXPECT_GT(device.update(below)->z, 0.0);  // pull back up
}

TEST(Haptic, LogsForcesAndSuggestsSpring) {
  HapticDevice device(HapticParams{});
  FrameView view;
  for (int i = 0; i < 50; ++i) {
    view.steered_com_z = -10.0 - 0.1 * i;
    (void)device.update(view);
  }
  EXPECT_EQ(device.force_log().count(), 50u);
  const double suggested = device.suggested_spring_pn();
  EXPECT_GT(suggested, 1.0);       // bracketable range in pN/Å
  EXPECT_LT(suggested, 100000.0);
}

TEST(Haptic, PolicyBindingWorks) {
  HapticDevice device(HapticParams{});
  VisualizerPolicy policy = device.as_policy();
  FrameView view;
  view.steered_com_z = 0.0;
  EXPECT_TRUE(policy(view).has_value());
  EXPECT_EQ(device.force_log().count(), 1u);
}

}  // namespace
