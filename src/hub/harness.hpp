#pragma once
// DES driver for SteeringHub sessions (bench/steering_hub, tests).
//
// Wires a SteeringHub, a net::Network and a grid::EventQueue (virtual
// seconds) into a closed loop:
//
//   frame event ──▶ sim.run(steps_per_frame) ──▶ hub.publish ──▶ fan-out
//   update deliver ──▶ client renders ──▶ ack send ──▶ hub.on_ack
//                                    └──▶ (steerers) command ──▶ hub.submit
//
// Clients are grouped into QoS tiers: each tier is a site linked to the
// hub's site with its own QosSpec, so every tier shares one modeled pipe —
// the bandwidth arithmetic that decides who keeps up and who resyncs.
// Client behaviour (render time, dead visualizers, steering cadence) is
// drawn from seeded per-client streams; with a fixed config the whole
// session — event order, session log, final engine state — is
// bit-identical across runs and across engine thread counts.
//
// run_naive_fanout models the counterfactual the hub replaces: the sim
// itself sends a full frame to every client and blocks on each client's
// window (ImdSession semantics × N) — the "one slow client stalls the
// science" regime quantified by bench/steering_hub's contrast arm.

#include <cstdint>
#include <string>
#include <vector>

#include "hub/hub.hpp"
#include "net/qos.hpp"

namespace spice::hub {

struct TierSpec {
  std::string name = "tier";
  net::QosSpec qos = net::local_area();
  std::size_t clients = 0;
  SubscriptionConfig sub;          ///< sub.tier is overwritten with `name`
  double render_seconds = 0.01;
  double steer_fraction = 0.0;     ///< fraction of the tier that steers
  double steer_period_s = 1.0;     ///< min seconds between a steerer's commands
  double dead_fraction = 0.0;      ///< clients whose visualizer never acks
};

struct HarnessConfig {
  std::uint64_t seed = 1;
  std::size_t total_steps = 2000;
  std::size_t steps_per_frame = 10;
  double seconds_per_step = 0.05;
  double frame_full_bytes = 1e5;   ///< keyframe size in timing-model mode
  HubConfig hub;
  std::vector<TierSpec> tiers;
};

struct TierMetrics {
  std::string name;
  std::size_t clients = 0;
  std::uint64_t updates_delivered = 0;
  std::uint64_t keyframes = 0;
  std::uint64_t deltas = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t send_failures = 0;
  double bytes = 0.0;
  double mean_rtt_s = 0.0;
  std::uint64_t max_lag_frames = 0;
};

struct HubRunMetrics {
  double elapsed_s = 0.0;       ///< DES time when the last event drained
  double sim_elapsed_s = 0.0;   ///< virtual time the sim loop consumed
  double sim_ideal_s = 0.0;     ///< steps × seconds_per_step (compute only)
  std::uint64_t frames_published = 0;
  std::size_t peak_ring = 0;
  std::size_t ring_capacity = 0;
  HubStats hub;
  std::vector<TierMetrics> tiers;
  std::vector<std::uint8_t> session_log_bytes;

  /// Sim step-rate degradation vs a zero-client run: the zero-client sim
  /// loop costs ideal + publish; anything beyond that is hub-imposed.
  [[nodiscard]] double degradation() const {
    const double baseline = sim_ideal_s + hub.sim_publish_cost_s;
    return baseline > 0.0 ? (sim_elapsed_s - baseline) / baseline : 0.0;
  }
};

class HubHarness {
 public:
  /// `simulation` may be null: the session then runs as a pure timing
  /// model (10k-client sweeps). With a real simulation, snapshots carry
  /// genuine positions, the codec produces real payloads, and accepted
  /// steering commands alter the trajectory.
  HubHarness(HarnessConfig config, steering::SteerableSimulation* simulation = nullptr,
             steering::SessionLog* log = nullptr);

  /// Run the whole session to completion (drains the event queue).
  HubRunMetrics run();

 private:
  HarnessConfig config_;
  steering::SteerableSimulation* simulation_;
  steering::SessionLog* log_;
};

struct NaiveFanoutMetrics {
  double wall_s = 0.0;
  double ideal_s = 0.0;
  double stall_s = 0.0;
  std::uint64_t frames_timed_out = 0;

  [[nodiscard]] double degradation() const {
    return ideal_s > 0.0 ? (wall_s - ideal_s) / ideal_s : 0.0;
  }
};

/// The no-broker counterfactual: per-frame, the sim thread sends a full
/// frame to every client and blocks on each full window (ack or
/// `ack_timeout_s`), exactly the single-client IMD failure mode scaled by
/// N. Uses the same tier/network layout as HubHarness.
NaiveFanoutMetrics run_naive_fanout(const HarnessConfig& config, double ack_timeout_s);

}  // namespace spice::hub
