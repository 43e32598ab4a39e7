// hub_fanout — the bench/steering_hub E20 session in timing-model mode:
// one simulation publishing 200 frames to 10k modeled clients over the
// lightpath, production-internet and degraded tiers, with TokenHolder
// steering arbitration. The only workload on hub/net; no MD, no broker.

#include <cstdio>
#include <vector>

#include "bench.hpp"
#include "hub/harness.hpp"
#include "net/qos.hpp"
#include "steering/session_log.hpp"

namespace perfbench {

namespace {

namespace hub = spice::hub;

constexpr std::size_t kClients = 10000;
/// Harness constructions per set-up sample: one takes microseconds, so a
/// single timing would be mostly clock noise.
constexpr std::size_t kSetupReps = 256;

/// steering_hub's base_config + mixed_tier_config(10000).
hub::HarnessConfig session_config(std::uint64_t seed) {
  hub::HarnessConfig config;
  config.seed = seed;
  config.total_steps = 2000;
  config.steps_per_frame = 10;
  config.seconds_per_step = 0.05;
  config.frame_full_bytes = 1e5;
  config.hub.ring_capacity = 64;
  config.hub.arbitration = hub::ArbitrationMode::TokenHolder;

  hub::TierSpec lightpath;
  lightpath.name = "lightpath";
  lightpath.qos = spice::net::lightpath_transatlantic();
  lightpath.clients = kClients * 6 / 10;
  lightpath.render_seconds = 0.01;
  lightpath.steer_fraction = 0.02;
  lightpath.steer_period_s = 5.0;

  hub::TierSpec internet;
  internet.name = "internet";
  internet.qos = spice::net::production_internet_transatlantic();
  internet.clients = kClients * 3 / 10;
  internet.render_seconds = 0.03;
  internet.steer_fraction = 0.01;
  internet.steer_period_s = 10.0;
  internet.sub.lag_budget_frames = 8;

  hub::TierSpec degraded;
  degraded.name = "degraded";
  degraded.qos = spice::net::congested_internet();
  degraded.clients = kClients - lightpath.clients - internet.clients;
  degraded.render_seconds = 0.05;
  degraded.dead_fraction = 0.3;
  degraded.sub.lag_budget_frames = 4;

  config.tiers = {lightpath, internet, degraded};
  return config;
}

struct Session {
  double setup_s = 0.0;  ///< one config + HubHarness construction
  double run_s = 0.0;
  hub::HubRunMetrics metrics;
  std::uint64_t digest = 0;
};

/// Set-up is building the config and the harness; HubHarness::run builds
/// the network and the client hosts itself, so that counts in run_s.
Session run_session(std::uint64_t seed, Spans* spans) {
  Scope batch_scope(spans, "batch");
  Session out;
  spice::steering::SessionLog log;
  {
    Scope scope(spans, "hub.HubHarness");
    const double t0 = now_s();
    for (std::size_t r = 0; r < kSetupReps; ++r) {
      const hub::HubHarness probe(session_config(seed), nullptr, &log);
    }
    out.setup_s = (now_s() - t0) / static_cast<double>(kSetupReps);
  }
  hub::HubHarness harness(session_config(seed), nullptr, &log);
  const double t0 = now_s();
  {
    Scope scope(spans, "hub.run");
    out.metrics = harness.run();
  }
  out.run_s = now_s() - t0;
  Fnv1a fnv;
  fnv.bytes(out.metrics.session_log_bytes.data(), out.metrics.session_log_bytes.size());
  out.digest = fnv.h;
  return out;
}

/// Check one session; returns the frames that were not published.
std::uint64_t check_session(const Session& s, Report& report, std::uint64_t frames) {
  const hub::HubRunMetrics& m = s.metrics;
  report.check(m.frames_published == frames, "published " + std::to_string(m.frames_published) +
                                                 " of " + std::to_string(frames) + " frames");
  report.check(m.peak_ring <= m.ring_capacity, "peak ring " + std::to_string(m.peak_ring) +
                                                   " <= capacity " +
                                                   std::to_string(m.ring_capacity));
  char line[96];
  std::snprintf(line, sizeof(line), "sim degradation %.4f%% <= 5%%", 100.0 * m.degradation());
  report.check(m.degradation() <= 0.05, line);
  return frames - std::min(frames, m.frames_published);
}

}  // namespace

void run_hub_fanout(const Options& options, Report& report) {
  const hub::HarnessConfig config = session_config(options.seed);
  const std::uint64_t frames = config.total_steps / config.steps_per_frame;
  std::printf("hub_fanout: %zu clients in 3 tiers, %llu frames, TokenHolder arbitration\n",
              kClients, static_cast<unsigned long long>(frames));
  Spans spans;
  std::vector<Session> plain;
  std::vector<Session> traced;
  run_batches(options, spans, plain, traced, [&](Spans* s) {
    Session session = run_session(options.seed, s);
    const hub::HubStats& h = session.metrics.hub;
    std::printf("session%s: setup %.3f us, run %.4f s, %llu updates, %llu send failures, "
                "digest %016llx\n",
                s ? " (traced)" : "", 1e6 * session.setup_s, session.run_s,
                static_cast<unsigned long long>(h.updates_sent),
                static_cast<unsigned long long>(h.send_failures),
                static_cast<unsigned long long>(session.digest));
    report.count_operations(frames, check_session(session, report, frames));
    if (!options.trace && plain.empty()) report.set("peak_rss_mib", peak_rss_mib());
    return session;
  });

  bool replay = true;
  std::vector<double> setup;
  std::vector<double> run;
  for (const auto* sessions : {&plain, &traced}) {
    for (const Session& s : *sessions) {
      replay = replay && s.digest == plain.front().digest &&
               s.metrics.hub.updates_sent == plain.front().metrics.hub.updates_sent;
      setup.push_back(s.setup_s);
      if (sessions == &plain) run.push_back(s.run_s);
    }
  }
  report.check(replay, "same-seed sessions replay the session log bit-identically");
  const hub::HubStats& h = plain.front().metrics.hub;
  const double updates = static_cast<double>(h.updates_sent);

  if (!options.trace) {
    const double run_s = median(run);
    std::printf("updates_per_s %.1f 1/s\nsetup_s %.9f s\n", updates / run_s, median(setup));
    report.set("setup_s", median(setup));
    report.set("time_to_result_s", run_s);
    report.set("throughput_per_s", updates / run_s);
    return;
  }

  spans.print_table();
  std::vector<double> traced_run;
  for (const Session& s : traced) traced_run.push_back(s.run_s);
  const double n = static_cast<double>(traced.size());
  const double run_s = spans.total("hub.run") / n;
  report.set("hub.setup_us", 1e6 * median(setup));
  report.set("hub.run_s", run_s);
  report.set("hub.update_ns", 1e9 * run_s / updates);
  report.set("hub.keyframe_ratio", static_cast<double>(h.keyframes_sent) / updates);
  report.set("hub.drop_ratio", static_cast<double>(h.frames_dropped) /
                                   (updates + static_cast<double>(h.frames_dropped)));
  report.set("hub.resyncs", static_cast<double>(h.resyncs));
  report.set("hub.commands_accepted", static_cast<double>(h.commands_accepted));
  report.set("hub.commands_rejected", static_cast<double>(h.commands_rejected));
  report.set("hub.send_failures", static_cast<double>(h.send_failures));
  report_trace_cost(spans, median(traced_run) / median(run), n, report);
}

}  // namespace perfbench
