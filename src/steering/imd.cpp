#include "steering/imd.hpp"

#include <algorithm>
#include <deque>

#include "common/error.hpp"
#include "md/observables.hpp"
#include "obs/obs.hpp"

namespace spice::steering {

ImdSession::ImdSession(spice::net::Network& network, spice::net::HostId sim_host,
                       spice::net::HostId viz_host, ImdConfig config,
                       SteerableSimulation* simulation)
    : network_(network),
      sim_host_(sim_host),
      viz_host_(viz_host),
      config_(config),
      simulation_(simulation) {
  SPICE_REQUIRE(config_.total_steps > 0, "IMD session needs steps");
  SPICE_REQUIRE(config_.steps_per_frame > 0, "steps_per_frame must be positive");
  SPICE_REQUIRE(config_.window > 0, "flow-control window must be positive");
  SPICE_REQUIRE(config_.seconds_per_step > 0.0, "seconds_per_step must be positive");
  SPICE_REQUIRE(config_.ack_timeout_s > 0.0, "ack_timeout_s must be positive");
}

ImdMetrics ImdSession::run() {
  SPICE_RECORD_SPAN("steering.imd_session");
  static obs::Counter& ticks = obs::metrics().counter("steering.imd.steps");
  static obs::Counter& frames = obs::metrics().counter("steering.imd.frames_sent");
  static obs::Counter& commands = obs::metrics().counter("steering.imd.commands_applied");
  static constexpr double kRttBounds[] = {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0};
  static obs::Histogram& rtt_hist =
      obs::metrics().histogram("steering.imd.frame_rtt_s", kRttBounds);
  static obs::Counter& timed_out = obs::metrics().counter("steering.imd.frames_timed_out");
  obs::Gauge& stall_gauge = obs::metrics().gauge("steering.imd.stall_seconds");
  ImdMetrics metrics;
  double wall = 0.0;
  double viz_free = 0.0;  // when the visualizer finishes its current frame

  struct InFlight {
    bool acked;
    double ack_time;
    double sent_at;
  };
  std::deque<InFlight> inflight;

  struct PendingCommand {
    double arrival;
    Vec3 force;
  };
  std::vector<PendingCommand> pending;

  std::uint64_t frame_id = 0;
  double rtt_sum = 0.0;
  std::uint64_t rtt_count = 0;

  for (std::size_t step = 0; step < config_.total_steps; ++step) {
    // Apply steering commands that have arrived by now (step boundary).
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->arrival <= wall) {
        if (simulation_ != nullptr) {
          simulation_->deliver(SteeringMessage::apply_force(it->force));
        }
        ++metrics.commands_applied;
        commands.add(1);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }

    if (simulation_ != nullptr) {
      const std::size_t taken = simulation_->run(1);
      SPICE_ENSURE(taken == 1, "steered engine refused to step");
    }
    wall += config_.seconds_per_step;
    ++metrics.steps_completed;
    ticks.add(1);

    if ((step + 1) % config_.steps_per_frame != 0) continue;

    // Flow control: block until a window slot frees — when the ack comes
    // in, or at the ack timeout for a frame that will never be acked (the
    // frame or its ack died in the network, or the visualizer is dead).
    // Without the timeout an unacked slot would free instantly, silently
    // exempting the worst clients from flow control.
    if (inflight.size() >= config_.window) {
      const InFlight oldest = inflight.front();
      inflight.pop_front();
      const double deadline = oldest.sent_at + config_.ack_timeout_s;
      const double release = oldest.acked ? std::min(oldest.ack_time, deadline) : deadline;
      if (!oldest.acked || oldest.ack_time > deadline) {
        ++metrics.frames_timed_out;
        timed_out.add(1);
      }
      if (release > wall) {
        metrics.stall_seconds += release - wall;
        wall = release;
      }
    }

    // Emit the frame.
    ++metrics.frames_sent;
    frames.add(1);
    const auto frame = network_.send(wall, sim_host_, viz_host_, config_.frame_bytes,
                                     config_.transport);
    if (!frame.delivered) {
      ++metrics.frames_lost;
      inflight.push_back(InFlight{false, 0.0, wall});
      ++frame_id;
      continue;
    }
    ++metrics.frames_delivered;

    const double render_done = std::max(frame.deliver_at, viz_free) + config_.render_seconds;
    viz_free = render_done;

    FrameView view;
    view.frame_id = frame_id;
    view.wall_seconds = wall;
    if (simulation_ != nullptr) {
      view.sim_time_ps = simulation_->engine().time();
      view.steered_com_z = simulation_->steered_com_z();
    }
    if (policy_) {
      if (const auto force = policy_(view)) {
        ++metrics.commands_sent;
        const auto cmd = network_.send(render_done, viz_host_, sim_host_,
                                       control_message_bytes(), config_.transport);
        if (cmd.delivered) pending.push_back(PendingCommand{cmd.deliver_at, *force});
      }
    }

    const auto ack =
        network_.send(render_done, viz_host_, sim_host_, control_message_bytes(),
                      config_.transport);
    if (ack.delivered) {
      inflight.push_back(InFlight{true, ack.deliver_at, wall});
      rtt_sum += ack.deliver_at - wall;
      ++rtt_count;
      rtt_hist.record(ack.deliver_at - wall);
    } else {
      inflight.push_back(InFlight{false, 0.0, wall});
    }
    ++frame_id;
  }

  metrics.wall_seconds = wall;
  stall_gauge.add(metrics.stall_seconds);
  metrics.ideal_seconds =
      static_cast<double>(config_.total_steps) * config_.seconds_per_step;
  metrics.mean_frame_rtt = rtt_count > 0 ? rtt_sum / static_cast<double>(rtt_count) : 0.0;
  return metrics;
}

}  // namespace spice::steering
