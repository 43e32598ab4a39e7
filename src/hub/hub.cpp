#include "hub/hub.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace spice::hub {

namespace {

constexpr double kRttBounds[] = {0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0};
constexpr double kLagBounds[] = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};

/// Simulation-side cost of publish(): one snapshot copy into the ring.
/// This is the ONLY coupling between the sim and the fan-out — the
/// bench's ≤5% step-rate gate measures exactly this.
constexpr double kPublishCostS = 50e-6;
static_assert(kPublishCostS >= 0.0, "publish cost must be non-negative");

/// Hub-worker CPU model: per-update fixed cost + per-byte encode cost.
/// Updates are dispatched serially on this budget, so a saturated hub
/// delays *clients* (never the simulation).
constexpr double kPerUpdateCpuS = 2e-6;
constexpr double kEncodeCpuSPerMb = 1e-3;

}  // namespace

SteeringHub::SteeringHub(net::Network& network, net::HostId hub_host, HubConfig config,
                         steering::SteerableSimulation* simulation,
                         steering::SessionLog* log)
    : network_(network),
      hub_host_(hub_host),
      config_(config),
      simulation_(simulation),
      log_(log),
      codec_(config.codec),
      ring_(config.ring_capacity) {
  SPICE_REQUIRE(config_.token_lease_s > 0.0, "token lease must be positive");
}

ClientId SteeringHub::connect(double now, net::HostId host, SubscriptionConfig subscription) {
  SPICE_REQUIRE(subscription.window > 0, "client window must be positive");
  ClientState state;
  state.host = host;
  state.sub = std::move(subscription);
  state.active = true;
  state.rtt_hist = &obs::metrics().histogram("hub.rtt_s." + state.sub.tier, kRttBounds);
  state.lag_hist = &obs::metrics().histogram("hub.lag_frames." + state.sub.tier, kLagBounds);
  clients_.push_back(std::move(state));
  ++connected_;
  static obs::Counter& connected = obs::metrics().counter("hub.clients_connected");
  connected.add(1);
  const auto id = static_cast<ClientId>(clients_.size() - 1);
  // Client id doubles as the causal session id: every recorder event this
  // session produces links back to the campaign/job/replica that fed it.
  if (obs::recorder_on()) {
    obs::flight_recorder().record_at(obs::RecordKind::Mark, "hub.client.connect",
                                     obs::now_us(), 0.0,
                                     obs::current_context().with_session(id));
  }
  // A late joiner syncs immediately if frames are already flowing.
  pump(now, id);
  return id;
}

void SteeringHub::disconnect(double now, ClientId client) {
  SPICE_REQUIRE(client < clients_.size(), "unknown hub client");
  ClientState& c = clients_[client];
  if (!c.active) return;
  c.active = false;
  c.inflight.clear();
  --connected_;
  if (token_holder_ == client) release_token(now, client);
}

double SteeringHub::publish(double now, FrameSnapshot frame) {
  frame.published_at = now;
  ring_.publish(std::move(frame));
  ++stats_.frames_published;
  stats_.sim_publish_cost_s += kPublishCostS;
  static obs::Counter& published = obs::metrics().counter("hub.frames_published");
  published.add(1);
  // The occupancy gauge feeds the watchdog's band probe: a ring pinned at
  // capacity (clients not draining) or at zero (producer wedged) alerts.
  static obs::Gauge& occupancy = obs::metrics().gauge("hub.ring.occupancy");
  occupancy.set(static_cast<double>(ring_.size()));
  if (obs::recorder_on()) {
    obs::flight_recorder().record(obs::RecordKind::Count, "hub.ring.occupancy",
                                  static_cast<double>(ring_.size()));
  }
  // Fan-out happens on the hub worker's clock, not the simulation's: the
  // return value — the ring write — is all the sim ever pays.
  for (ClientId id = 0; id < clients_.size(); ++id) pump(now, id);
  return kPublishCostS;
}

void SteeringHub::pump(double now, ClientId client) {
  ClientState& c = clients_[client];
  if (!c.active || c.inflight.size() >= c.sub.window) return;
  const std::uint64_t newest = ring_.newest_id();
  if (newest == kNoFrame || c.last_sent == newest) return;
  const FrameSnapshot* target = ring_.find(newest);
  SPICE_ENSURE(target != nullptr, "newest ring frame must be retained");

  const FrameSnapshot* base =
      (c.last_sent == kNoFrame || c.chain_broken) ? nullptr : ring_.find(c.last_sent);
  const std::uint64_t gap = c.last_sent == kNoFrame ? 0 : newest - c.last_sent;
  const bool over_budget = gap > c.sub.lag_budget_frames;
  const bool keyframe = base == nullptr || over_budget || codec_.keyframe_due(newest);

  EncodedUpdate update =
      keyframe ? codec_.encode_keyframe(*target) : codec_.encode_delta(*base, *target);

  // Resyncs (lag, eviction, broken chain) and coalesced catch-up deltas
  // both skip the intermediate frames: the client never sees them.
  if (c.last_sent != kNoFrame && gap > 1) {
    const std::uint64_t dropped = gap - 1;
    c.stats.frames_dropped += dropped;
    stats_.frames_dropped += dropped;
  }
  const bool resync = c.last_sent != kNoFrame && (base == nullptr || over_budget);
  if (resync) {
    ++c.stats.resyncs;
    ++stats_.resyncs;
  }

  // Serialize the encode+dispatch on the hub worker's CPU budget.
  const double cpu = kPerUpdateCpuS + update.bytes * 1e-6 * kEncodeCpuSPerMb;
  const double dispatch_at = std::max(now, worker_busy_until_);
  worker_busy_until_ = dispatch_at + cpu;
  stats_.worker_busy_s += cpu;

  const auto outcome = network_.send(dispatch_at, hub_host_, c.host, update.bytes,
                                     c.sub.transport);
  ++c.stats.updates_sent;
  ++stats_.updates_sent;
  if (update.kind == UpdateKind::Keyframe) {
    ++c.stats.keyframes_sent;
    ++stats_.keyframes_sent;
  } else {
    ++c.stats.deltas_sent;
    ++stats_.deltas_sent;
  }
  c.stats.bytes_sent += update.bytes;
  stats_.bytes_sent += update.bytes;
  static obs::Counter& updates = obs::metrics().counter("hub.updates_sent");
  updates.add(1);
  if (obs::recorder_on()) {
    obs::flight_recorder().record_at(obs::RecordKind::Instant, "hub.update_sent",
                                     obs::now_us(), update.bytes,
                                     obs::current_context().with_session(client));
  }

  if (!outcome.delivered) {
    // The update died in the network: the client's delta chain is broken
    // (it will be keyframe-resynced on its next send) but no window slot
    // is consumed and the simulation is entirely unaffected.
    c.chain_broken = true;
    ++c.stats.send_failures;
    ++stats_.send_failures;
    return;
  }
  c.chain_broken = false;
  c.last_sent = newest;
  c.inflight.push_back(InFlight{newest, dispatch_at});
  if (sink_) sink_(client, update, outcome.deliver_at);
}

void SteeringHub::on_ack(double now, ClientId client, std::uint64_t frame_id) {
  SPICE_REQUIRE(client < clients_.size(), "unknown hub client");
  ClientState& c = clients_[client];
  if (!c.active) return;
  bool matched = false;
  double sent_at = 0.0;
  while (!c.inflight.empty() && c.inflight.front().frame_id <= frame_id) {
    matched = true;
    sent_at = c.inflight.front().sent_at;
    c.inflight.pop_front();
  }
  if (!matched) return;  // duplicate/stale ack
  ++c.stats.acks_received;
  ++stats_.acks_received;
  c.last_acked = frame_id;
  const double rtt = now - sent_at;
  c.stats.rtt_sum += rtt;
  ++c.stats.rtt_count;
  c.rtt_hist->record(rtt);
  const std::uint64_t newest = ring_.newest_id();
  const std::uint64_t lag = newest == kNoFrame ? 0 : newest - frame_id;
  c.stats.max_lag_frames = std::max(c.stats.max_lag_frames, lag);
  c.lag_hist->record(static_cast<double>(lag));
  // The freed window slot immediately pulls the client toward the newest
  // frame (catch-up delta or keyframe resync).
  pump(now, client);
}

void SteeringHub::expire_token(double now) {
  if (token_holder_ != kNoClient && now >= token_lease_expiry_) {
    ++stats_.token_expiries;
    static obs::Counter& expiries = obs::metrics().counter("hub.arbitration.expiries");
    expiries.add(1);
    token_holder_ = kNoClient;
  }
}

bool SteeringHub::request_token(double now, ClientId client) {
  SPICE_REQUIRE(client < clients_.size(), "unknown hub client");
  expire_token(now);
  if (token_holder_ == kNoClient || token_holder_ == client) {
    token_holder_ = client;
    token_lease_expiry_ = now + config_.token_lease_s;
    ++stats_.token_grants;
    static obs::Counter& grants = obs::metrics().counter("hub.arbitration.grants");
    grants.add(1);
    return true;
  }
  ++stats_.token_denials;
  static obs::Counter& denials = obs::metrics().counter("hub.arbitration.denials");
  denials.add(1);
  return false;
}

void SteeringHub::release_token(double /*now*/, ClientId client) {
  if (token_holder_ != client) return;
  token_holder_ = kNoClient;
}

void SteeringHub::record_command(const steering::SteeringMessage& message) {
  if (simulation_ != nullptr) {
    if (log_ != nullptr) log_->record(simulation_->engine().step_count(), message);
    simulation_->deliver(message);
    return;
  }
  if (log_ != nullptr) {
    // Model mode: anchor the record at the newest published frame's step
    // (monotone because frames are).
    const FrameSnapshot* newest = ring_.find(ring_.newest_id());
    log_->record(newest != nullptr ? newest->sim_step : 0, message);
  }
}

CommandOutcome SteeringHub::submit_command(double now, ClientId client,
                                           const steering::SteeringMessage& message) {
  SPICE_REQUIRE(client < clients_.size(), "unknown hub client");
  ClientState& c = clients_[client];
  if (!c.active) {
    ++c.stats.commands_rejected;
    ++stats_.commands_rejected;
    return CommandOutcome::RejectedDisconnected;
  }
  if (config_.arbitration == ArbitrationMode::TokenHolder) {
    expire_token(now);
    if (token_holder_ != client) {
      ++c.stats.commands_rejected;
      ++stats_.commands_rejected;
      static obs::Counter& rejected = obs::metrics().counter("hub.commands_rejected");
      rejected.add(1);
      return CommandOutcome::RejectedNotTokenHolder;
    }
    token_lease_expiry_ = now + config_.token_lease_s;  // activity renews
  }
  record_command(message);
  ++c.stats.commands_accepted;
  ++stats_.commands_accepted;
  static obs::Counter& accepted = obs::metrics().counter("hub.commands_accepted");
  accepted.add(1);
  if (obs::recorder_on()) {
    obs::flight_recorder().record_at(obs::RecordKind::Command, "hub.command_accepted",
                                     obs::now_us(),
                                     static_cast<double>(stats_.commands_accepted),
                                     obs::current_context().with_session(client));
  }
  return CommandOutcome::Applied;
}

const ClientStats& SteeringHub::client_stats(ClientId client) const {
  SPICE_REQUIRE(client < clients_.size(), "unknown hub client");
  return clients_[client].stats;
}

const SubscriptionConfig& SteeringHub::subscription(ClientId client) const {
  SPICE_REQUIRE(client < clients_.size(), "unknown hub client");
  return clients_[client].sub;
}

}  // namespace spice::hub
