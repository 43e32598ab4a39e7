// spice::obs flight recorder + causal context + post-mortem dumper.
//
// The contracts under test:
//   * TraceContext packs campaign/job/replica/session losslessly into one
//     word, narrows without clobbering ancestors, and renders stably;
//   * the per-thread ring keeps exactly the last `capacity` events,
//     counts overwrites, and a drain never returns a torn event even with
//     writers running (the TSan stress below is the race detector's food);
//   * record() stamps the emitting thread's context into every event and
//     the Chrome writer renders it; a wrapped ring keeps the tail in order
//     and the JSON says how many events were overwritten;
//   * the watchdog gauge band probe alerts when a gauge is stuck outside
//     its band for the window, stays quiet in band, and re-arms;
//   * HistogramSample::quantile interpolates inside the right bucket;
//   * a post-mortem dump produces parseable Chrome-trace + causal-tree
//     JSON whose tree hangs session events under the campaign/job path
//     that produced them (the hub → engine linkage);
//   * a fatal signal in a child process leaves a parseable dump behind
//     (the black-box promise), and the child still dies by that signal;
//   * recording is invisible to physics: recorder-on trajectories are
//     bit-identical to recorder-off (the determinism contract).

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/obs.hpp"
#include "testkit/golden.hpp"

// Post-mortem dumps land under the build tree (set by tests/CMakeLists.txt),
// never the source tree — running the binary from the repo root must not
// litter it with output files.
#ifndef SPICE_OUTPUT_DIR
#define SPICE_OUTPUT_DIR "."
#endif

namespace {

using namespace spice;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- TraceContext ---------------------------------------------------------

TEST(TraceContext, PacksAndUnpacksAllLevels) {
  const auto ctx =
      obs::TraceContext::campaign(3).with_job(71234).with_replica(9).with_session(4093);
  EXPECT_EQ(ctx.campaign_id(), 3u);
  EXPECT_EQ(ctx.job_id(), 71234u);
  ASSERT_TRUE(ctx.has_replica());
  EXPECT_EQ(ctx.replica_id(), 9u);
  ASSERT_TRUE(ctx.has_session());
  EXPECT_EQ(ctx.session_id(), 4093u);
  EXPECT_EQ(ctx.to_string(), "c3.j71234.r9.s4093");
}

TEST(TraceContext, ZeroIdsStayDistinguishableFromUnset) {
  const obs::TraceContext empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.has_replica());
  EXPECT_EQ(empty.to_string(), "-");
  // replica 0 and session 0 are real ids (stored +1), not "unset".
  const auto ctx = obs::TraceContext::campaign(1).with_replica(0).with_session(0);
  ASSERT_TRUE(ctx.has_replica());
  EXPECT_EQ(ctx.replica_id(), 0u);
  ASSERT_TRUE(ctx.has_session());
  EXPECT_EQ(ctx.session_id(), 0u);
  EXPECT_EQ(ctx.to_string(), "c1.r0.s0");
}

TEST(TraceContext, NarrowingPreservesAncestors) {
  const auto job = obs::TraceContext::campaign(7).with_job(42);
  const auto replica = job.with_replica(3);
  EXPECT_EQ(replica.campaign_id(), 7u);
  EXPECT_EQ(replica.job_id(), 42u);
  // Re-narrowing replaces, not accumulates.
  EXPECT_EQ(replica.with_replica(5).replica_id(), 5u);
  EXPECT_EQ(replica.with_replica(5).job_id(), 42u);
}

TEST(TraceContext, ScopeRestoresOnExit) {
  obs::set_current_context({});
  {
    obs::ContextScope outer(obs::TraceContext::campaign(1));
    EXPECT_EQ(obs::current_context().campaign_id(), 1u);
    {
      obs::ContextScope inner(obs::current_context().with_job(5));
      EXPECT_EQ(obs::current_context().job_id(), 5u);
    }
    EXPECT_EQ(obs::current_context().job_id(), 0u);
    EXPECT_EQ(obs::current_context().campaign_id(), 1u);
  }
  EXPECT_TRUE(obs::current_context().empty());
}

// --- FlightRecorder -------------------------------------------------------

TEST(FlightRecorder, KeepsTheLastCapacityEvents) {
  obs::set_recorder_enabled(true);
  obs::FlightRecorder recorder(/*capacity_per_thread=*/64);
  for (int i = 0; i < 200; ++i) {
    recorder.record_at(obs::RecordKind::Instant, "tick", static_cast<double>(i),
                       static_cast<double>(i), {});
  }
  const auto events = recorder.drain();
  // A wrapped ring drains capacity − 1 events: the slot of the oldest
  // resident event may be mid-rewrite by a concurrent writer, so drain
  // conservatively discards it even when (as here) no writer is running.
  ASSERT_EQ(events.size(), 63u);
  EXPECT_DOUBLE_EQ(events.front().value, 137.0);
  EXPECT_DOUBLE_EQ(events.back().value, 199.0);
  EXPECT_EQ(recorder.recorded_count(), 200u);
  EXPECT_EQ(recorder.overwritten_count(), 200u - 64u);
}

TEST(FlightRecorder, EventRoundTripsKindNameContextValue) {
  obs::set_recorder_enabled(true);
  obs::FlightRecorder recorder(64);
  const auto ctx = obs::TraceContext::campaign(2).with_job(9).with_session(17);
  recorder.record_at(obs::RecordKind::Command, "hub.command", 123.5, 7.0, ctx);
  const auto events = recorder.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::RecordKind::Command);
  EXPECT_STREQ(events[0].name, "hub.command");
  EXPECT_DOUBLE_EQ(events[0].ts_us, 123.5);
  EXPECT_DOUBLE_EQ(events[0].value, 7.0);
  EXPECT_EQ(events[0].ctx.to_string(), "c2.j9.s17");
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  obs::FlightRecorder recorder(64);
  obs::set_recorder_enabled(false);
  recorder.record(obs::RecordKind::Instant, "dropped");
  obs::set_recorder_enabled(true);
  EXPECT_TRUE(recorder.drain().empty());
  EXPECT_EQ(recorder.recorded_count(), 0u);
}

TEST(FlightRecorder, SpanRecordsDurationAtScopeExit) {
  obs::set_recorder_enabled(true);
  const std::uint64_t before = obs::flight_recorder().recorded_count();
  {
    obs::RecordedSpan span("test.span");
  }
  EXPECT_EQ(obs::flight_recorder().recorded_count(), before + 1);
  const auto events = obs::flight_recorder().drain();
  ASSERT_FALSE(events.empty());
  // The singleton accumulates across tests; find our span from the back.
  const auto it = std::find_if(events.rbegin(), events.rend(), [](const auto& e) {
    return e.kind == obs::RecordKind::Span && std::string(e.name) == "test.span";
  });
  ASSERT_NE(it, events.rend());
  EXPECT_GE(it->value, 0.0);
}

// The TSan preset runs this too: concurrent writers on their own rings
// with a drainer snapshotting mid-flight must be race-free, and every
// drained event must decode to one of the written names (never torn).
TEST(FlightRecorder, ConcurrentWritersAndDrainerStayCoherent) {
  obs::set_recorder_enabled(true);
  obs::FlightRecorder recorder(256);
  constexpr int kWriters = 4;
  constexpr int kEventsPerWriter = 50'000;
  static const char* const kNames[] = {"w.alpha", "w.beta", "w.gamma", "w.delta"};
  std::atomic<bool> stop{false};
  std::atomic<int> done{0};

  std::thread drainer([&] {
    std::size_t drains = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto events = recorder.drain();
      for (const auto& e : events) {
        bool known = false;
        for (const char* n : kNames) known |= (e.name == n);
        ASSERT_TRUE(known) << "torn or corrupt event name";
        ASSERT_LE(e.kind, obs::RecordKind::End);
      }
      ++drains;
    }
    EXPECT_GT(drains, 0u);
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const auto ctx = obs::TraceContext::campaign(1).with_replica(w);
      for (int i = 0; i < kEventsPerWriter; ++i) {
        recorder.record_at(obs::RecordKind::Count, kNames[w], static_cast<double>(i),
                           static_cast<double>(i), ctx);
      }
      done.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  drainer.join();

  EXPECT_EQ(recorder.recorded_count(),
            static_cast<std::uint64_t>(kWriters) * kEventsPerWriter);
  const auto final_events = recorder.drain();
  // capacity − 1 per wrapped ring (oldest resident slot is discarded).
  EXPECT_EQ(final_events.size(),
            static_cast<std::size_t>(kWriters) * (recorder.capacity() - 1));
}

// --- context stamping + keep-newest retention in the Chrome writer -------
//
// TracerContext keeps the suite name of the test it replaced; it drives
// the flight recorder and its writer.

TEST(TracerContext, PushStampsCurrentContext) {
  obs::set_recorder_enabled(true);
  obs::FlightRecorder recorder(64);
  const obs::ContextScope scope(obs::TraceContext::campaign(4).with_job(2));
  recorder.record(obs::RecordKind::Instant, "marked");
  const auto events = recorder.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ctx.to_string(), "c4.j2");
  std::ostringstream os;
  obs::write_chrome_trace(os, events, recorder, "test");
  EXPECT_NE(os.str().find("\"ctx\":\"c4.j2\""), std::string::npos);
  EXPECT_TRUE(json_is_valid(os.str()));
}

// A wrapped ring keeps its newest events in order, and the writer's JSON
// says how many fell off the head.
TEST(ChromeTrace, WrappedRingKeepsTheTailAndCountsTheOverwritten) {
  obs::set_recorder_enabled(true);
  obs::FlightRecorder recorder(16);
  static const char* const kNames[] = {"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"};
  for (int i = 0; i < 40; ++i) {
    recorder.record_at(obs::RecordKind::Instant, kNames[i % 8], static_cast<double>(i), 0.0,
                       {});
  }
  const auto events = recorder.drain();
  // capacity − 1 resident (the oldest slot is discarded on a wrapped ring),
  // in chronological order, ending at the newest event.
  ASSERT_EQ(events.size(), 15u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].ts_us, static_cast<double>(25 + i));
  }
  EXPECT_STREQ(events.back().name, "e7");
  EXPECT_EQ(recorder.overwritten_count(), 24u);
  std::ostringstream os;
  obs::write_chrome_trace(os, events, recorder, "test");
  EXPECT_NE(os.str().find("24 events overwritten"), std::string::npos);
  EXPECT_TRUE(json_is_valid(os.str()));
  EXPECT_NE(os.str().find(R"("name":"e7","cat":"e7","ph":"i","ts":39)"), std::string::npos);
  EXPECT_EQ(os.str().find(R"("ts":24,)"), std::string::npos);
}

// --- Watchdog gauge band probe --------------------------------------------

TEST(WatchdogGauge, AlertsWhenStuckOutsideBand) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry registry;
  obs::Gauge& gauge = registry.gauge("test.occupancy");
  gauge.set(10.0);  // above the band from the start
  obs::Watchdog watchdog({.default_deadline_s = 0.01}, registry);
  watchdog.watch_gauge("occupancy", gauge, 1.0, 5.0);
  EXPECT_EQ(watchdog.poll(), 0u);  // deadline not yet expired
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_EQ(watchdog.poll(), 1u);  // stuck out of band past the window
  EXPECT_EQ(watchdog.poll(), 0u);  // edge-triggered: no repeat alert
  // Back in band: recovers and re-arms; a later excursion alerts again.
  gauge.set(3.0);
  EXPECT_EQ(watchdog.poll(), 0u);
  gauge.set(0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_EQ(watchdog.poll(), 1u);
  obs::set_metrics_enabled(false);
}

TEST(WatchdogGauge, InBandGaugeNeverAlerts) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry registry;
  obs::Gauge& gauge = registry.gauge("test.healthy");
  gauge.set(2.0);
  obs::Watchdog watchdog({.default_deadline_s = 0.01}, registry);
  watchdog.watch_gauge("healthy", gauge, 1.0, 5.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_EQ(watchdog.poll(), 0u);
  obs::set_metrics_enabled(false);
}

// --- Histogram quantiles --------------------------------------------------

TEST(HistogramQuantile, InterpolatesWithinBuckets) {
  obs::HistogramSample h;
  h.name = "t";
  h.bounds = {1.0, 2.0, 4.0};
  h.counts = {10, 10, 0, 0};  // uniform mass over (0,1] and (1,2]
  h.count = 20;
  h.sum = 25.0;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);   // rank 10 = end of first bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.5);  // middle of the first bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 1.5);  // middle of the second bucket
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(HistogramQuantile, OverflowClampsToHighestBound) {
  obs::HistogramSample h;
  h.name = "t";
  h.bounds = {1.0, 2.0};
  h.counts = {0, 0, 5};  // everything in overflow
  h.count = 5;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(HistogramQuantile, EmptyHistogramReturnsZero) {
  obs::HistogramSample h;
  h.bounds = {1.0};
  h.counts = {0, 0};
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramQuantile, PrometheusExpositionCarriesQuantileLines) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("rtt.seconds", std::vector<double>{0.1, 1.0});
  for (int i = 0; i < 10; ++i) h.record(0.05);
  std::ostringstream os;
  obs::write_prometheus(os, registry.snapshot());
  EXPECT_NE(os.str().find("rtt_seconds_quantile{q=\"0.5\"}"), std::string::npos);
  EXPECT_NE(os.str().find("rtt_seconds_quantile{q=\"0.99\"}"), std::string::npos);
  obs::set_metrics_enabled(false);
}

// --- post-mortem dumps ----------------------------------------------------

TEST(PostMortem, ExplicitDumpIsParseableAndCausallyGrouped) {
  obs::set_recorder_enabled(true);
  {
    // A miniature campaign: engine-level span under c1.j1.r0, one hub
    // session narrowed from it — the dump's tree must nest s5 under r0.
    const obs::ContextScope replica_scope(
        obs::TraceContext::campaign(1).with_job(1).with_replica(0));
    obs::flight_recorder().record(obs::RecordKind::Span, "pm.engine.step", 12.0);
    const obs::ContextScope session_scope(obs::current_context().with_session(5));
    obs::flight_recorder().record(obs::RecordKind::Instant, "pm.hub.update");
  }
  // Something for the registry snapshot to contain.
  obs::set_metrics_enabled(true);
  obs::metrics().counter("test.pm.events").add(3);
  obs::set_metrics_enabled(false);
  obs::PostMortemConfig config;
  config.output_dir = SPICE_OUTPUT_DIR;
  config.prefix = "test_postmortem";
  obs::arm_post_mortem(config);
  const std::string prefix = obs::dump_post_mortem("unit test");
  obs::disarm_post_mortem();
  ASSERT_FALSE(prefix.empty());

  const std::string flight = slurp(prefix + "_flight.json");
  const std::string causal = slurp(prefix + "_causal.json");
  const std::string prom = slurp(prefix + "_registry.prom");
  std::string error;
  EXPECT_TRUE(json_is_valid(flight, &error)) << error;
  EXPECT_TRUE(json_is_valid(causal, &error)) << error;
  EXPECT_NE(flight.find("pm.engine.step"), std::string::npos);
  EXPECT_NE(flight.find("\"ctx\":\"c1.j1.r0\""), std::string::npos);
  // The causal tree: session 5 nests under replica 0 which holds the
  // engine span — the hub-session → engine-step linkage.
  EXPECT_NE(causal.find("\"id\":\"r0\""), std::string::npos);
  EXPECT_NE(causal.find("\"id\":\"s5\""), std::string::npos);
  EXPECT_LT(causal.find("pm.engine.step"), causal.find("pm.hub.update"));
  EXPECT_NE(prom.find("test_pm_events"), std::string::npos);
}

TEST(PostMortem, FatalSignalInChildLeavesParseableDump) {
  obs::set_recorder_enabled(true);
  const char* prefix = "test_signal_postmortem";
  const std::string out_prefix = std::string(SPICE_OUTPUT_DIR) + "/" + prefix;
  std::remove((out_prefix + "_flight.json").c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm the signal trigger, record a little history, die by
    // SIGTERM. _exit codes signal setup failures; the expected path never
    // reaches them because the re-raised SIGTERM kills the process.
    obs::PostMortemConfig config;
    config.output_dir = SPICE_OUTPUT_DIR;
    config.prefix = prefix;
    config.dump_on_signal = true;
    obs::arm_post_mortem(config);
    const obs::ContextScope scope(obs::TraceContext::campaign(9).with_job(3));
    for (int i = 0; i < 100; ++i) {
      obs::flight_recorder().record(obs::RecordKind::Instant, "child.tick",
                                    static_cast<double>(i));
    }
    std::raise(SIGTERM);
    _exit(42);  // unreachable if the handler re-raised correctly
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  // The child must still die BY the signal (the handler re-raises), not
  // exit normally — the dump is a side effect, not a rescue.
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGTERM);

  const std::string flight = slurp(out_prefix + "_flight.json");
  ASSERT_FALSE(flight.empty()) << "signal handler wrote no dump";
  std::string error;
  EXPECT_TRUE(json_is_valid(flight, &error)) << error;
  EXPECT_NE(flight.find("child.tick"), std::string::npos);
  EXPECT_NE(flight.find("signal: 15"), std::string::npos);
  const std::string causal = slurp(out_prefix + "_causal.json");
  EXPECT_TRUE(json_is_valid(causal, &error)) << error;
  EXPECT_NE(causal.find("\"id\":\"j3\""), std::string::npos);
}

// --- determinism ----------------------------------------------------------

TEST(RecorderDeterminism, RecorderOnMatchesRecorderOffBitwise) {
  namespace tk = spice::testkit;
  obs::set_recorder_enabled(false);
  const tk::GoldenRecord off = tk::run_golden("chain24", {.threads = 2});
  obs::set_recorder_enabled(true);
  const tk::GoldenRecord on = tk::run_golden("chain24", {.threads = 2});
  const tk::GoldenDrift drift = tk::compare_golden(on, off, tk::GoldenLevel::Bitwise);
  EXPECT_TRUE(drift.ok) << "flight recording perturbed the trajectory";
}

}  // namespace
