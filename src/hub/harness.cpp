#include "hub/harness.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "grid/des.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"

namespace spice::hub {

namespace {

constexpr const char* kHubSite = "hub-site";
/// |z| of a steerer's ApplyForce commands.
constexpr double kSteerForcePn = 30.0;
/// Steerers release the token after this many accepted commands, so
/// TokenHolder sessions exercise contention and hand-over.
constexpr std::uint32_t kCommandsPerGrant = 5;

/// Behavioural state for one simulated client. All stochastic choices come
/// from a per-client derived stream, and every draw happens inside a DES
/// event handler, so the draw sequence — and with it the whole session —
/// is a pure function of the config.
struct ClientModel {
  net::HostId host = 0;
  std::size_t tier = 0;
  bool dead = false;      ///< visualizer crashed: receives, never acks
  bool steerer = false;
  double next_steer_at = 0.0;
  std::uint64_t commands_sent = 0;
  std::uint32_t accepted_since_grant = 0;
  Rng rng{0};
};

}  // namespace

HubHarness::HubHarness(HarnessConfig config, steering::SteerableSimulation* simulation,
                       steering::SessionLog* log)
    : config_(std::move(config)), simulation_(simulation), log_(log) {
  SPICE_REQUIRE(config_.steps_per_frame > 0, "steps_per_frame must be positive");
  SPICE_REQUIRE(config_.total_steps % config_.steps_per_frame == 0,
                "total_steps must be a multiple of steps_per_frame");
}

HubRunMetrics HubHarness::run() {
  grid::EventQueue queue;
  net::Network network(config_.seed);
  const net::HostId hub_host = network.add_host(kHubSite);
  SteeringHub hub(network, hub_host, config_.hub, simulation_, log_);

  // Topology: each tier is one site behind one modeled pipe to the hub, so
  // every client in a tier contends for that tier's bandwidth.
  std::vector<ClientModel> models;
  for (std::size_t t = 0; t < config_.tiers.size(); ++t) {
    const TierSpec& tier = config_.tiers[t];
    network.connect_sites(kHubSite, tier.name, tier.qos);
    const auto dead = static_cast<std::size_t>(tier.dead_fraction *
                                               static_cast<double>(tier.clients));
    const auto steerers = static_cast<std::size_t>(tier.steer_fraction *
                                                   static_cast<double>(tier.clients));
    for (std::size_t i = 0; i < tier.clients; ++i) {
      ClientModel m;
      m.host = network.add_host(tier.name);
      m.tier = t;
      m.dead = i < dead;
      m.steerer = !m.dead && i < dead + steerers;
      m.rng = Rng::stream(config_.seed, 0x48415242, t, i);
      m.next_steer_at = m.rng.uniform(0.0, tier.steer_period_s);
      models.push_back(std::move(m));
      SubscriptionConfig sub = tier.sub;
      sub.tier = tier.name;
      hub.connect(0.0, models.back().host, std::move(sub));
    }
  }

  // Client plane: an update delivery schedules one event after the
  // client's render time, which acks (live clients) and possibly steers.
  // The hub's worker may hand the network timestamps slightly ahead of the
  // DES clock (dispatch serialization); net::Network tolerates that — see
  // the ordering note in network.hpp.
  hub.set_delivery_sink([&](ClientId id, const EncodedUpdate& update, double deliver_at) {
    const std::uint64_t frame_id = update.frame_id;
    queue.at(deliver_at, [&, id, frame_id] {
      ClientModel& m = models[id];
      if (m.dead) return;
      const TierSpec& tier = config_.tiers[m.tier];
      const double render = tier.render_seconds * m.rng.uniform(0.75, 1.25);
      queue.after(render, [&, id, frame_id] {
        ClientModel& m2 = models[id];
        const double now = queue.now();
        const auto ack = network.send(now, m2.host, hub_host,
                                      steering::control_message_bytes());
        if (ack.delivered) {
          queue.at(ack.deliver_at,
                   [&, id, frame_id] { hub.on_ack(queue.now(), id, frame_id); });
        }
        if (!m2.steerer || now < m2.next_steer_at) return;
        const TierSpec& tier2 = config_.tiers[m2.tier];
        m2.next_steer_at = now + tier2.steer_period_s;
        const double force_z = (m2.rng.bernoulli(0.5) ? 1.0 : -1.0) * kSteerForcePn;
        const std::uint64_t sequence =
            (static_cast<std::uint64_t>(id) << 32) | m2.commands_sent++;
        const auto cmd = network.send(now, m2.host, hub_host,
                                      steering::control_message_bytes());
        if (!cmd.delivered) return;
        queue.at(cmd.deliver_at, [&, id, force_z, sequence] {
          ClientModel& m3 = models[id];
          const double arrive = queue.now();
          if (config_.hub.arbitration == ArbitrationMode::TokenHolder &&
              hub.token_holder() != id && !hub.request_token(arrive, id)) {
            return;  // denied: the command is dropped, retried next period
          }
          auto message = steering::SteeringMessage::apply_force({0.0, 0.0, force_z});
          message.sequence = sequence;
          if (hub.submit_command(arrive, id, message) == CommandOutcome::Applied &&
              ++m3.accepted_since_grant >= kCommandsPerGrant) {
            m3.accepted_since_grant = 0;
            hub.release_token(arrive, id);
          }
        });
      });
    });
  });

  // Producer plane: the sim loop computes one frame interval, publishes,
  // pays exactly the publish cost, and immediately starts the next frame.
  // The loop's DES span IS the sim's elapsed time — any coupling to the
  // fan-out would show up here and in degradation().
  HubRunMetrics out;
  out.sim_ideal_s =
      static_cast<double>(config_.total_steps) * config_.seconds_per_step;
  const std::uint64_t total_frames = config_.total_steps / config_.steps_per_frame;
  const double frame_compute_s =
      static_cast<double>(config_.steps_per_frame) * config_.seconds_per_step;

  // Self-rescheduling closure; it outlives queue.run(), so the scheduled
  // events capture a plain pointer (a shared_ptr self-capture would leak).
  std::function<void(std::uint64_t)> publish_frame;
  auto* pf = &publish_frame;
  publish_frame = [&, pf](std::uint64_t frame_id) {
    // The whole frame — engine steps and the hub publish/fan-out — runs
    // under one causal context, so a post-mortem causal tree hangs this
    // frame's hub sessions and its md.force_eval spans off the same
    // campaign/job/replica node.
    const obs::ContextScope causal_scope(
        obs::TraceContext::campaign(1).with_job(1).with_replica(0));
    SPICE_RECORD_SPAN("hub.frame");
    const double now = queue.now();
    FrameSnapshot frame;
    frame.frame_id = frame_id;
    frame.full_bytes = config_.frame_full_bytes;
    if (simulation_ != nullptr) {
      simulation_->run(config_.steps_per_frame);
      frame.sim_step = simulation_->engine().step_count();
      const auto positions = simulation_->engine().positions();
      frame.positions.assign(positions.begin(), positions.end());
      frame.steered_com_z = simulation_->steered_com_z();
    } else {
      frame.sim_step = frame_id * config_.steps_per_frame;
    }
    frame.sim_time_ps = static_cast<double>(frame.sim_step);
    const double cost = hub.publish(now, std::move(frame));
    out.sim_elapsed_s += frame_compute_s + cost;
    if (frame_id < total_frames) {
      queue.at(now + cost + frame_compute_s,
               [pf, frame_id] { (*pf)(frame_id + 1); });
    }
  };
  queue.at(frame_compute_s, [pf] { (*pf)(1); });

  queue.run();

  out.elapsed_s = queue.now();
  out.frames_published = hub.stats().frames_published;
  out.peak_ring = hub.ring().peak_size();
  out.ring_capacity = hub.ring().capacity();
  out.hub = hub.stats();
  ClientId next_id = 0;
  for (std::size_t t = 0; t < config_.tiers.size(); ++t) {
    TierMetrics tm;
    tm.name = config_.tiers[t].name;
    tm.clients = config_.tiers[t].clients;
    double rtt_sum = 0.0;
    std::uint64_t rtt_count = 0;
    for (std::size_t i = 0; i < config_.tiers[t].clients; ++i, ++next_id) {
      const ClientStats& cs = hub.client_stats(next_id);
      tm.updates_delivered += cs.acks_received;
      tm.keyframes += cs.keyframes_sent;
      tm.deltas += cs.deltas_sent;
      tm.frames_dropped += cs.frames_dropped;
      tm.resyncs += cs.resyncs;
      tm.send_failures += cs.send_failures;
      tm.bytes += cs.bytes_sent;
      rtt_sum += cs.rtt_sum;
      rtt_count += cs.rtt_count;
      tm.max_lag_frames = std::max(tm.max_lag_frames, cs.max_lag_frames);
    }
    tm.mean_rtt_s = rtt_count > 0 ? rtt_sum / static_cast<double>(rtt_count) : 0.0;
    out.tiers.push_back(std::move(tm));
  }
  if (log_ != nullptr) out.session_log_bytes = log_->serialize();
  return out;
}

NaiveFanoutMetrics run_naive_fanout(const HarnessConfig& config, double ack_timeout_s) {
  SPICE_REQUIRE(ack_timeout_s > 0.0, "ack timeout must be positive");
  net::Network network(config.seed);
  const net::HostId sim_host = network.add_host(kHubSite);

  struct NaiveClient {
    net::HostId host = 0;
    std::size_t tier = 0;
    bool dead = false;
    std::size_t window = 4;
    /// (release_time, timed_out): when a full window frees its oldest slot.
    std::deque<std::pair<double, bool>> inflight;
  };
  std::vector<NaiveClient> clients;
  for (std::size_t t = 0; t < config.tiers.size(); ++t) {
    const TierSpec& tier = config.tiers[t];
    network.connect_sites(kHubSite, tier.name, tier.qos);
    const auto dead = static_cast<std::size_t>(tier.dead_fraction *
                                               static_cast<double>(tier.clients));
    for (std::size_t i = 0; i < tier.clients; ++i) {
      NaiveClient c;
      c.host = network.add_host(tier.name);
      c.tier = t;
      c.dead = i < dead;
      c.window = tier.sub.window;
      clients.push_back(std::move(c));
    }
  }

  NaiveFanoutMetrics out;
  const std::uint64_t total_frames = config.total_steps / config.steps_per_frame;
  const double frame_compute_s =
      static_cast<double>(config.steps_per_frame) * config.seconds_per_step;
  out.ideal_s = static_cast<double>(total_frames) * frame_compute_s;

  // The sim thread itself walks every client each frame: a full window
  // blocks it until the oldest in-flight frame is acked or times out —
  // ImdSession's window stall, multiplied by the client count.
  double wall = 0.0;
  for (std::uint64_t frame = 1; frame <= total_frames; ++frame) {
    wall += frame_compute_s;
    for (NaiveClient& c : clients) {
      if (c.inflight.size() >= c.window) {
        const auto [release, timed_out] = c.inflight.front();
        c.inflight.pop_front();
        if (release > wall) {
          out.stall_s += release - wall;
          wall = release;
        }
        if (timed_out) ++out.frames_timed_out;
      }
      const auto sent = network.send(wall, sim_host, c.host, config.frame_full_bytes);
      double release = wall + ack_timeout_s;
      bool timed_out = true;
      if (sent.delivered && !c.dead) {
        const TierSpec& tier = config.tiers[c.tier];
        const auto ack = network.send(sent.deliver_at + tier.render_seconds, c.host,
                                      sim_host, steering::control_message_bytes());
        if (ack.delivered && ack.deliver_at <= release) {
          release = ack.deliver_at;
          timed_out = false;
        }
      }
      c.inflight.emplace_back(release, timed_out);
    }
  }
  out.wall_s = wall;
  return out;
}

}  // namespace spice::hub
