#pragma once
// spice::hub — multi-tenant steering broker (DESIGN.md §12).
//
// Multiplexes N viewers/steerers onto one running SteerableSimulation.
// The single-client IMD session (steering/imd) couples the simulation's
// step loop to its one client's flow-control window; at production scale
// that coupling is fatal — one slow client would stall the science. The
// hub inverts it:
//
//   * the simulation publishes into a FrameRing and never blocks
//     (publish() costs one ring write, independent of client count);
//   * a hub worker fans frames out as delta-encoded updates, serialized
//     on a modeled CPU budget, through net::Network so QoS shapes what
//     each client actually receives;
//   * every client has a bounded-lag subscription: an in-flight window
//     (at most `window` unacked updates) and a lag budget — a client that
//     falls more than `lag_budget_frames` behind (or whose delta base was
//     evicted from the ring, or whose chain broke on a lost update) is
//     resynced to the newest keyframe and the frames it never saw are
//     counted as dropped. A dead client costs exactly `window` in-flight
//     updates and then nothing, forever.
//   * steering commands pass an arbitration policy — TokenHolder
//     (explicit grant/release with a lease timeout) or LastWriterWins —
//     and accepted commands are recorded through steering/session_log at
//     the engine step they were applied, so a contested multi-client
//     session replays bit-identically on a fresh simulation.
//
// The hub is single-threaded and clock-explicit: every entry point takes
// `now` (seconds). Drivers (hub/harness, bench/steering_hub) sequence the
// calls from a DES event queue; determinism is inherited from the queue's
// total event order and the network's seeded RNG.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "hub/codec.hpp"
#include "hub/frame_ring.hpp"
#include "net/network.hpp"
#include "steering/messages.hpp"
#include "steering/session_log.hpp"
#include "steering/steerable.hpp"

namespace spice::obs {
class Histogram;
}  // namespace spice::obs

namespace spice::hub {

using ClientId = std::uint32_t;

enum class ArbitrationMode {
  TokenHolder,     ///< explicit grant/release with lease timeout
  LastWriterWins,  ///< every accepted command overwrites the previous one
};

struct SubscriptionConfig {
  std::size_t window = 4;             ///< max in-flight unacked updates
  std::uint64_t lag_budget_frames = 8;  ///< fall further behind ⇒ keyframe resync
  net::Transport transport = net::Transport::Tcp;
  std::string tier = "default";       ///< obs histogram label (e.g. QoS tier)
};

struct HubConfig {
  std::size_t ring_capacity = 64;
  CodecConfig codec;
  ArbitrationMode arbitration = ArbitrationMode::TokenHolder;
  double token_lease_s = 10.0;        ///< steering lease; expires lazily
};

struct ClientStats {
  std::uint64_t updates_sent = 0;
  std::uint64_t keyframes_sent = 0;
  std::uint64_t deltas_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t frames_dropped = 0;  ///< published frames this client never saw
  std::uint64_t resyncs = 0;         ///< lag/eviction/chain-break keyframe recoveries
  std::uint64_t send_failures = 0;   ///< network gave up on an update
  std::uint64_t commands_accepted = 0;
  std::uint64_t commands_rejected = 0;
  double bytes_sent = 0.0;
  double rtt_sum = 0.0;
  std::uint64_t rtt_count = 0;
  std::uint64_t max_lag_frames = 0;
};

struct HubStats {
  std::uint64_t frames_published = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t keyframes_sent = 0;
  std::uint64_t deltas_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t commands_accepted = 0;
  std::uint64_t commands_rejected = 0;
  std::uint64_t token_grants = 0;
  std::uint64_t token_denials = 0;
  std::uint64_t token_expiries = 0;
  double bytes_sent = 0.0;
  double sim_publish_cost_s = 0.0;  ///< total sim-side time publish() charged
  double worker_busy_s = 0.0;       ///< total hub-worker CPU consumed
};

enum class CommandOutcome {
  Applied,
  RejectedNotTokenHolder,
  RejectedDisconnected,
};

class SteeringHub {
 public:
  /// `simulation` may be null (pure timing-model sessions: commands are
  /// logged and arbitrated but drive no engine). `log` may be null when
  /// the session need not be replayable.
  SteeringHub(net::Network& network, net::HostId hub_host, HubConfig config,
              steering::SteerableSimulation* simulation = nullptr,
              steering::SessionLog* log = nullptr);

  /// Called once per encoded update the hub hands to the network: the
  /// driver schedules the client-side receipt at `deliver_at`. Updates
  /// the network failed to deliver do not reach the sink.
  using DeliverySink =
      std::function<void(ClientId, const EncodedUpdate&, double deliver_at)>;
  void set_delivery_sink(DeliverySink sink) { sink_ = std::move(sink); }

  // --- client lifecycle -------------------------------------------------
  ClientId connect(double now, net::HostId host, SubscriptionConfig subscription);
  void disconnect(double now, ClientId client);
  [[nodiscard]] std::size_t connected_clients() const { return connected_; }

  // --- producer side ----------------------------------------------------
  /// Publish a snapshot and fan it out to every client with window room.
  /// Returns the simulation-side cost in seconds (the ring write); the
  /// caller advances the sim clock by exactly this much. Never blocks on
  /// any client.
  double publish(double now, FrameSnapshot frame);

  // --- transport callbacks ---------------------------------------------
  /// Cumulative ack: acknowledges every in-flight update with
  /// frame_id <= `frame_id`, then pumps the client's catch-up send.
  void on_ack(double now, ClientId client, std::uint64_t frame_id);

  // --- steering plane ---------------------------------------------------
  /// TokenHolder mode: try to acquire the steering token (idempotent for
  /// the current holder — re-requesting renews the lease).
  bool request_token(double now, ClientId client);
  void release_token(double now, ClientId client);
  [[nodiscard]] ClientId token_holder() const { return token_holder_; }

  CommandOutcome submit_command(double now, ClientId client,
                                const steering::SteeringMessage& message);

  // --- introspection ----------------------------------------------------
  [[nodiscard]] const FrameRing& ring() const { return ring_; }
  [[nodiscard]] const HubStats& stats() const { return stats_; }
  [[nodiscard]] const ClientStats& client_stats(ClientId client) const;
  [[nodiscard]] const SubscriptionConfig& subscription(ClientId client) const;

  static constexpr ClientId kNoClient = ~ClientId{0};

 private:
  struct InFlight {
    std::uint64_t frame_id;
    double sent_at;
  };
  struct ClientState {
    net::HostId host = 0;
    SubscriptionConfig sub;
    bool active = false;
    bool chain_broken = false;       ///< next update must be a keyframe
    std::uint64_t last_sent = kNoFrame;
    std::uint64_t last_acked = kNoFrame;
    std::deque<InFlight> inflight;
    ClientStats stats;
    obs::Histogram* rtt_hist = nullptr;  ///< per-tier, resolved at connect
    obs::Histogram* lag_hist = nullptr;
  };

  /// Send the newest frame to `client` if it has window room: a delta
  /// against its last sent frame when the chain is intact and within the
  /// lag budget, else a keyframe resync.
  void pump(double now, ClientId client);
  void expire_token(double now);
  void record_command(const steering::SteeringMessage& message);

  net::Network& network_;
  net::HostId hub_host_;
  HubConfig config_;
  steering::SteerableSimulation* simulation_;
  steering::SessionLog* log_;
  SnapshotCodec codec_;
  FrameRing ring_;
  DeliverySink sink_;

  std::vector<ClientState> clients_;
  std::size_t connected_ = 0;
  double worker_busy_until_ = 0.0;
  ClientId token_holder_ = kNoClient;
  double token_lease_expiry_ = 0.0;
  HubStats stats_;
};

}  // namespace spice::hub
