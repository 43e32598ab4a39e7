// Multi-tenant steering hub at scale — 10k concurrent IMD clients on one
// simulation (DESIGN.md §12, EXPERIMENTS.md E20).
//
// Arms:
//   baseline    — the same session with ZERO clients: what the sim loop
//                 costs when nobody is watching (ideal + ring publishes).
//   hub_10k     — 10k clients across three QoS tiers (lightpath /
//                 production internet / congested+dead). Gates: sim
//                 step-rate degradation vs baseline ≤ 5%, peak ring
//                 occupancy ≤ capacity, and a same-seed repeat run must
//                 reproduce the session log and stats bit-identically.
//   naive_100   — the no-broker counterfactual at only 100 clients: the
//                 sim thread sends full frames to every client and blocks
//                 on each flow-control window (single-client IMD semantics
//                 × N) — the regime the hub exists to escape.
//   real_engine — a small session driving a live MD engine, run twice
//                 with the same seed (md.threads 1 and 8): session log and
//                 final checkpoint digests must be bit-identical. The
//                 6-bead strand is one force slice, so both runs step on
//                 the caller alone — a same-seed replay, not a thread-count
//                 test.
//
// `--smoke` scales the main arm to 1k clients — the CI configuration.

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "claims.hpp"
#include "common/json.hpp"
#include "hub/harness.hpp"
#include "net/qos.hpp"
#include "obs/obs.hpp"
#include "pore/system.hpp"
#include "steering/session_log.hpp"
#include "steering/steerable.hpp"
#include "testkit/golden.hpp"

using namespace spice;
using namespace spice::claims;
using namespace spice::hub;

namespace {

constexpr std::uint64_t kSeed = 2005;

HarnessConfig base_config() {
  HarnessConfig config;
  config.seed = kSeed;
  config.total_steps = 2000;
  config.steps_per_frame = 10;   // a frame every 0.5 virtual seconds
  config.seconds_per_step = 0.05;
  config.frame_full_bytes = 1e5; // ~8k atoms × 12 bytes, quantized
  config.hub.ring_capacity = 64;
  config.hub.arbitration = ArbitrationMode::TokenHolder;
  return config;
}

HarnessConfig mixed_tier_config(std::size_t clients) {
  HarnessConfig config = base_config();

  // 60% on the dedicated lightpath, 30% on the production internet, 10%
  // on a congested path where a third of the viewers have crashed.
  TierSpec lightpath;
  lightpath.name = "lightpath";
  lightpath.qos = net::lightpath_transatlantic();
  lightpath.clients = clients * 6 / 10;
  lightpath.render_seconds = 0.01;
  lightpath.steer_fraction = 0.02;
  lightpath.steer_period_s = 5.0;

  TierSpec internet;
  internet.name = "internet";
  internet.qos = net::production_internet_transatlantic();
  internet.clients = clients * 3 / 10;
  internet.render_seconds = 0.03;
  internet.steer_fraction = 0.01;
  internet.steer_period_s = 10.0;
  internet.sub.lag_budget_frames = 8;

  TierSpec degraded;
  degraded.name = "degraded";
  degraded.qos = net::congested_internet();
  degraded.clients = clients - lightpath.clients - internet.clients;
  degraded.render_seconds = 0.05;
  degraded.dead_fraction = 0.3;
  degraded.sub.lag_budget_frames = 4;

  config.tiers = {lightpath, internet, degraded};
  return config;
}

struct HubArm {
  HubRunMetrics metrics;
  std::uint64_t log_digest = 0;
  double bench_wall_s = 0.0;
};

HubArm run_hub_arm(const HarnessConfig& config) {
  steering::SessionLog log;
  HubArm arm;
  const double t0 = obs::now_us();
  arm.metrics = HubHarness(config, nullptr, &log).run();
  arm.bench_wall_s = (obs::now_us() - t0) * 1e-6;
  arm.log_digest = testkit::fnv1a64(arm.metrics.session_log_bytes);
  return arm;
}

steering::SteerableSimulation make_sim(std::uint64_t seed, std::size_t threads) {
  spice::pore::TranslocationConfig config;
  config.dna.nucleotides = 6;
  config.equilibration_steps = 200;
  config.md.seed = seed;
  config.md.threads = threads;
  auto system = spice::pore::build_translocation_system(config);
  return steering::SteerableSimulation(std::move(system.engine),
                                       {system.dna_selection.front()});
}

std::pair<std::uint64_t, std::uint64_t> run_real_arm(std::size_t threads) {
  HarnessConfig config = base_config();
  config.total_steps = 200;
  TierSpec tier;
  tier.name = "real";
  tier.qos = net::lightpath_transatlantic();
  tier.clients = 6;
  tier.render_seconds = 0.01;
  tier.steer_fraction = 0.5;
  tier.steer_period_s = 1.0;
  config.tiers = {tier};

  steering::SteerableSimulation sim = make_sim(7, threads);
  steering::SessionLog log;
  HubHarness(config, &sim, &log).run();
  return {testkit::fnv1a64(log.serialize()),
          testkit::fnv1a64(sim.engine().checkpoint().bytes)};
}

}  // namespace

void spice::claims::steering_hub(Claim& claim) {
  const bool smoke = claim.smoke();
  const std::size_t clients = smoke ? 1000 : 10000;
  obs::set_metrics_enabled(true);

  std::printf("steering_hub: multi-tenant broker at %zu clients%s\n\n", clients,
              smoke ? " (smoke)" : "");

  // --- baseline: zero clients ------------------------------------------------
  HarnessConfig zero = base_config();
  const HubArm baseline = run_hub_arm(zero);
  std::printf("baseline (0 clients):   sim %.2f virtual s over %" PRIu64 " frames (%.2fs bench)\n",
              baseline.metrics.sim_elapsed_s, baseline.metrics.frames_published,
              baseline.bench_wall_s);

  // --- main arm: mixed QoS tiers --------------------------------------------
  const HarnessConfig mixed = mixed_tier_config(clients);
  const HubArm hub_run = run_hub_arm(mixed);
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();  // before repeat
  const HubArm repeat = run_hub_arm(mixed);
  const HubRunMetrics& m = hub_run.metrics;

  const double degradation =
      (m.sim_elapsed_s - baseline.metrics.sim_elapsed_s) / baseline.metrics.sim_elapsed_s;
  const bool deterministic = hub_run.log_digest == repeat.log_digest &&
                             m.hub.updates_sent == repeat.metrics.hub.updates_sent &&
                             m.hub.bytes_sent == repeat.metrics.hub.bytes_sent &&
                             m.elapsed_s == repeat.metrics.elapsed_s;

  std::printf("hub (%zu clients):     sim %.2f virtual s, session drained at %.1f s (%.2fs bench)\n",
              clients, m.sim_elapsed_s, m.elapsed_s, hub_run.bench_wall_s);
  std::printf("  updates %" PRIu64 " (%" PRIu64 " kf / %" PRIu64 " delta), dropped %" PRIu64
              ", resyncs %" PRIu64 ", %.1f MB\n",
              m.hub.updates_sent, m.hub.keyframes_sent, m.hub.deltas_sent, m.hub.frames_dropped,
              m.hub.resyncs, m.hub.bytes_sent / 1e6);
  std::printf("  commands accepted %" PRIu64 " / rejected %" PRIu64 ", token grants %" PRIu64
              " denials %" PRIu64 "\n",
              m.hub.commands_accepted, m.hub.commands_rejected, m.hub.token_grants,
              m.hub.token_denials);
  for (const auto& tier : m.tiers) {
    std::printf("  tier %-10s %5zu clients: %7" PRIu64 " acked, rtt %.3fs, max lag %" PRIu64
                ", dropped %" PRIu64 ", resyncs %" PRIu64 "\n",
                tier.name.c_str(), tier.clients, tier.updates_delivered, tier.mean_rtt_s,
                tier.max_lag_frames, tier.frames_dropped, tier.resyncs);
  }

  // --- naive direct fan-out contrast -----------------------------------------
  HarnessConfig naive_cfg = mixed_tier_config(100);
  naive_cfg.total_steps = 400;  // 40 frames suffice; each one is painful
  const NaiveFanoutMetrics naive = run_naive_fanout(naive_cfg, /*ack_timeout_s=*/5.0);
  std::printf("\nnaive fan-out (100 clients, no broker): wall %.1fs vs ideal %.1fs "
              "(degradation %.0f%%, %" PRIu64 " timeouts)\n",
              naive.wall_s, naive.ideal_s, 100.0 * naive.degradation(), naive.frames_timed_out);

  // --- real engine, same-seed replay at one force slice ----------------------
  const auto [log1, state1] = run_real_arm(1);
  const auto [log8, state8] = run_real_arm(8);
  const bool replay_identical = log1 == log8 && state1 == state8;
  std::printf("real engine 1 vs 8 threads: log %016" PRIx64 "/%016" PRIx64 " state %016" PRIx64
              "/%016" PRIx64 "\n",
              log1, log8, state1, state8);

  // --- forced stall -> post-mortem black-box dump -----------------------------
  // Arm the dumper, then wedge a watchdog gauge probe: the ring-occupancy
  // gauge is watched against a band it can never enter, so the poll after
  // the deadline fires a stall alert, which triggers the dump. The dump
  // must be parseable and its causal tree must link a hub client session
  // (sN node) back to the engine step spans recorded under the same
  // campaign/job/replica — the end-to-end black-box story.
  bool gate_postmortem = false;
  {
    obs::PostMortemConfig pm;
    pm.prefix = "steering_hub_postmortem";
    pm.output_dir = ".";
    pm.dump_on_watchdog = true;
    obs::arm_post_mortem(pm);

    obs::Watchdog watchdog;
    obs::Gauge& occupancy = obs::metrics().gauge("hub.ring.occupancy");
    // A band strictly above the gauge's parked value: unreachable, so the
    // probe sees "out of band" for the whole (tiny) window.
    watchdog.watch_gauge("hub-ring-occupancy", occupancy, occupancy.value() + 1.0,
                         occupancy.value() + 2.0, /*deadline_s=*/0.02);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    const std::size_t fired = watchdog.poll();
    obs::disarm_post_mortem();

    auto slurp = [](const char* path) {
      std::ifstream in(path);
      std::stringstream ss;
      ss << in.rdbuf();
      return ss.str();
    };
    const std::string flight = slurp("steering_hub_postmortem_flight.json");
    const std::string causal = slurp("steering_hub_postmortem_causal.json");
    const bool parseable = json_is_valid(flight) && json_is_valid(causal);
    const bool linked = causal.find("\"id\":\"s") != std::string::npos &&
                        causal.find("\"id\":\"r0\"") != std::string::npos &&
                        causal.find("md.force_eval") != std::string::npos &&
                        causal.find("hub.update_sent") != std::string::npos;
    gate_postmortem = fired > 0 && obs::post_mortem_dump_count() > 0 && parseable && linked;
    std::printf("\npost-mortem: stall alerts %zu, dumps %" PRIu64 ", flight %zu B, causal %zu B — "
                "parseable %s, session->engine linkage %s\n",
                fired, obs::post_mortem_dump_count(), flight.size(), causal.size(),
                parseable ? "yes" : "NO", linked ? "yes" : "NO");
  }

  // --- gates ------------------------------------------------------------------
  const bool gate_naive = naive.degradation() > 10.0 * (degradation < 0.0 ? 0.0 : degradation) &&
                          naive.degradation() > 0.5;
  claim.check(degradation <= 0.05,
              fmt("sim degradation %.3f%% <= 5%%", 100.0 * degradation));
  claim.check(m.peak_ring <= m.ring_capacity,
              fmt("peak ring %zu <= capacity %zu", m.peak_ring, m.ring_capacity));
  claim.check(deterministic, "same-seed repeat bit-identical");
  claim.check(replay_identical,
              "real-engine session same-seed replay bit-identical (one force slice)");
  claim.check(gate_naive, "naive fan-out demonstrably worse");
  claim.check(gate_postmortem, "stall dump parseable + causally linked");

  // --- metrics ----------------------------------------------------------------
  auto hex = [](std::uint64_t digest) { return fmt("%016" PRIx64, digest); };
  claim.set("clients", clients);
  claim.set_group("baseline", {{"sim_elapsed_s", baseline.metrics.sim_elapsed_s},
                               {"frames", baseline.metrics.frames_published}});
  claim.set_group("hub", {{"sim_elapsed_s", m.sim_elapsed_s}, {"session_elapsed_s", m.elapsed_s},
                          {"degradation", degradation}, {"peak_ring", m.peak_ring},
                          {"ring_capacity", m.ring_capacity},
                          {"updates_sent", m.hub.updates_sent},
                          {"keyframes_sent", m.hub.keyframes_sent},
                          {"deltas_sent", m.hub.deltas_sent},
                          {"frames_dropped", m.hub.frames_dropped}, {"resyncs", m.hub.resyncs},
                          {"bytes_sent", m.hub.bytes_sent},
                          {"commands_accepted", m.hub.commands_accepted},
                          {"commands_rejected", m.hub.commands_rejected},
                          {"worker_busy_s", m.hub.worker_busy_s},
                          {"bench_wall_s", hub_run.bench_wall_s}});
  claim.set("hub.log_digest", hex(hub_run.log_digest));
  for (const auto& tier : m.tiers) {
    claim.set_group("hub.tier." + tier.name,
                    {{"clients", tier.clients}, {"updates_delivered", tier.updates_delivered},
                     {"mean_rtt_s", tier.mean_rtt_s}, {"max_lag_frames", tier.max_lag_frames},
                     {"frames_dropped", tier.frames_dropped}, {"resyncs", tier.resyncs},
                     {"bytes", tier.bytes}});
  }
  for (const auto& h : snap.histograms) {
    if (h.name.rfind("hub.", 0) != 0) continue;
    const std::string prefix = "hub.histogram." + h.name;
    claim.set_group(prefix, {{"count", h.count}, {"mean", h.mean()}});
    claim.set(prefix + ".bounds", h.bounds);
    claim.set(prefix + ".counts", std::vector<double>(h.counts.begin(), h.counts.end()));
  }
  claim.set_group("naive_fanout", {{"clients", 100}, {"wall_s", naive.wall_s},
                                   {"ideal_s", naive.ideal_s}, {"stall_s", naive.stall_s},
                                   {"degradation", naive.degradation()},
                                   {"frames_timed_out", naive.frames_timed_out}});
  claim.set("real_engine.log_digest_t1", hex(log1));
  claim.set("real_engine.log_digest_t8", hex(log8));
  claim.set("real_engine.state_digest_t1", hex(state1));
  claim.set("real_engine.state_digest_t8", hex(state8));
}
