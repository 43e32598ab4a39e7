// spice::obs — metrics registry, Chrome-trace writer, and cross-layer
// instrumentation.
//
// The contracts under test:
//   * counters are exact once writers quiesce, even under heavy concurrent
//     sharded adds;
//   * histogram bucket edges follow the documented v <= bound rule;
//   * the recorder's Chrome trace output is well-formed trace-event JSON
//     (parsed back with the repo's own validator, including escape-worthy
//     names), with async begin/end pairs and counters;
//   * the DES records retroactive job spans on its own recorder, in
//     virtual-clock order, one track per site;
//   * kill switches actually kill (disabled adds are no-ops).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "grid/des.hpp"
#include "grid/site.hpp"
#include "obs/obs.hpp"

namespace {

using namespace spice;

/// Flip the metrics switch for one test and restore the all-off default
/// afterwards, so obs state never leaks between tests (or suites).
struct ObsGuard {
  explicit ObsGuard(bool metrics) { obs::set_metrics_enabled(metrics); }
  ~ObsGuard() { obs::set_metrics_enabled(false); }
};

// --- registry -------------------------------------------------------------

TEST(MetricsRegistry, ConcurrentCounterAddsAreExact) {
  ObsGuard guard(/*metrics=*/true);
  obs::MetricsRegistry registry;
  obs::Counter& shared = registry.counter("test.shared.adds");
  obs::Counter& weighted = registry.counter("test.weighted.adds");

  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &weighted, t] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        shared.add(1);
        weighted.add(t + 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Sharded relaxed adds must still sum exactly once writers quiesce.
  EXPECT_EQ(shared.value(), kThreads * kAddsPerThread);
  std::uint64_t expected_weighted = 0;
  for (std::size_t t = 0; t < kThreads; ++t) expected_weighted += (t + 1) * kAddsPerThread;
  EXPECT_EQ(weighted.value(), expected_weighted);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("test.shared.adds"), kThreads * kAddsPerThread);
  EXPECT_EQ(snap.counter_value("test.weighted.adds"), expected_weighted);
  EXPECT_EQ(snap.counter_value("test.never.registered"), 0u);
}

TEST(MetricsRegistry, HandlesAreStableAndFindOrCreate) {
  ObsGuard guard(/*metrics=*/true);
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("test.stable");
  obs::Counter& b = registry.counter("test.stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  registry.reset();
  EXPECT_EQ(a.value(), 0u);  // handle survives reset
}

TEST(MetricsRegistry, DisabledAddsAreNoops) {
  ObsGuard guard(/*metrics=*/false);
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("test.disabled");
  obs::Gauge& gauge = registry.gauge("test.disabled.gauge");
  counter.add(42);
  gauge.set(3.5);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(MetricsRegistry, HistogramBucketEdges) {
  ObsGuard guard(/*metrics=*/true);
  obs::MetricsRegistry registry;
  const double bounds[] = {1.0, 2.0, 5.0};
  obs::Histogram& h = registry.histogram("test.edges", bounds);

  h.record(0.5);   // <= 1.0        -> bucket 0
  h.record(1.0);   // == bound      -> bucket 0 (v <= bound is inclusive)
  h.record(1.001); // just above    -> bucket 1
  h.record(2.0);   // == bound      -> bucket 1
  h.record(5.0);   // == last bound -> bucket 2
  h.record(5.001); // above all     -> overflow
  h.record(1e9);   //               -> overflow

  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 5.001 + 1e9, 1e-6);
}

TEST(MetricsRegistry, ConcurrentHistogramRecordsAreExact) {
  ObsGuard guard(/*metrics=*/true);
  obs::MetricsRegistry registry;
  const double bounds[] = {0.25, 0.5, 0.75};
  obs::Histogram& h = registry.histogram("test.concurrent.hist", bounds);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<double>(i % 4) * 0.25);  // 0, .25, .5, .75 evenly
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(h.count(), kThreads * kPerThread);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  // 0 and 0.25 both land in bucket 0 (v <= 0.25); .5 and .75 in their own.
  EXPECT_EQ(counts[0], kThreads * kPerThread / 2);
  EXPECT_EQ(counts[1], kThreads * kPerThread / 4);
  EXPECT_EQ(counts[2], kThreads * kPerThread / 4);
  EXPECT_EQ(counts[3], 0u);
}

// --- thread pool instrumentation ------------------------------------------

TEST(PoolInstrumentation, ParallelForRecordsIntoGlobalRegistry) {
  ObsGuard guard(/*metrics=*/true);
  const std::uint64_t calls_before =
      obs::metrics().snapshot().counter_value("pool.parallel_for.calls");

  ThreadPool pool(4);
  std::atomic<std::size_t> touched{0};
  for (int i = 0; i < 5; ++i) {
    pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
      touched.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(touched.load(), 5000u);

  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  EXPECT_EQ(snap.counter_value("pool.parallel_for.calls"), calls_before + 5);
  // Imbalance histogram saw the same calls.
  const auto it = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                               [](const auto& h) {
                                 return h.name == "pool.parallel_for.imbalance";
                               });
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_GE(it->count, 5u);
}

// --- Chrome-trace writer ---------------------------------------------------
//
// Tracer.* keep the suite name of the tests they replaced; they drive the
// flight recorder and its writer.

/// Events of one name, in drain (timestamp) order.
std::vector<obs::RecorderEvent> named(const std::vector<obs::RecorderEvent>& events,
                                      std::string_view name) {
  std::vector<obs::RecorderEvent> out;
  for (const auto& e : events) {
    if (e.name == name) out.push_back(e);
  }
  return out;
}

TEST(Tracer, WriteJsonIsWellFormed) {
  obs::set_recorder_enabled(true);
  obs::FlightRecorder recorder(64);
  const std::uint32_t track = recorder.new_track("site \"A\"\\B");
  const obs::TraceContext job = obs::TraceContext::campaign(1).with_job(7);
  recorder.record_at(obs::RecordKind::Span, "span \"quoted\"", 10.0, 5.0, job, track);
  recorder.record_at(obs::RecordKind::Instant, "marker", 12.0, 0.0, job, track);
  recorder.record_at(obs::RecordKind::Begin, "grid.held", 13.0, 2.0, job, track);
  recorder.record_at(obs::RecordKind::Count, "queue_depth", 14.0, 3.0, {});
  recorder.record_at(obs::RecordKind::End, "grid.held", 20.0, 2.0, job, track);
  const auto events = recorder.drain();
  ASSERT_EQ(events.size(), 5u);

  std::ostringstream os;
  obs::write_chrome_trace(os, events, recorder, "test \"process\"\nwith escapes\t");
  const std::string json = os.str();
  std::string error;
  EXPECT_TRUE(spice::json_is_valid(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find(R"("name":"site \"A\"\\B")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"span \"quoted\"")"), std::string::npos);
  // Category = name up to the first '.'.
  EXPECT_NE(json.find(R"("name":"grid.held","cat":"grid","ph":"b")"), std::string::npos);
  // The async pair shares one id: job context + hold count.
  EXPECT_NE(json.find(R"("ph":"b","ts":13,"pid":1,"tid":256,"id":"c1.j7#2")"),
            std::string::npos);
  EXPECT_NE(json.find(R"("ph":"e","ts":20,"pid":1,"tid":256,"id":"c1.j7#2")"),
            std::string::npos);
  EXPECT_NE(json.find(R"("ph":"C","ts":14,"pid":1,"tid":)"), std::string::npos);
  EXPECT_NE(json.find(R"("args":{"value":3}})"), std::string::npos);
  EXPECT_EQ(json.find("overwritten"), std::string::npos);
}

TEST(Tracer, ScopedTraceRecordsAgainstProcessTracer) {
  obs::set_recorder_enabled(true);
  {
    SPICE_RECORD_SPAN("unit.scope");
  }
  const auto spans = named(obs::flight_recorder().drain(), "unit.scope");
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.back().kind, obs::RecordKind::Span);
  EXPECT_GE(spans.back().value, 0.0);
  EXPECT_EQ(spans.back().track, thread_index());  // a thread's default track

  std::ostringstream os;
  obs::write_chrome_trace(os, spans, obs::flight_recorder(), "scoped");
  EXPECT_NE(os.str().find(R"("name":"unit.scope","cat":"unit","ph":"X")"), std::string::npos);
  EXPECT_NE(os.str().find("\"thread " + std::to_string(thread_index()) + "\""),
            std::string::npos);
}

// --- DES virtual clock -----------------------------------------------------

TEST(DesTracing, JobSpansLandOnTheVirtualTimelineInOrder) {
  obs::set_recorder_enabled(true);
  obs::FlightRecorder recorder(1024);
  grid::EventQueue events;
  events.set_recorder(&recorder);
  grid::SiteSpec spec;
  spec.name = "TestSite";
  spec.processors = 128;
  grid::Site site(spec, events);

  // Two jobs that must run back-to-back (each wants every processor).
  for (int i = 0; i < 2; ++i) {
    grid::Job job;
    job.id = static_cast<grid::JobId>(i + 1);
    job.name = "job" + std::to_string(i);
    job.processors = 128;
    job.runtime_hours = 2.0;
    site.submit(std::move(job));
  }
  events.run_until(100.0);

  const auto drained = recorder.drain();
  const auto runs = named(drained, "grid.job.run");
  ASSERT_EQ(runs.size(), 2u);
  // Virtual clock: 2 simulated hours of runtime map to exactly
  // 2 * kTraceUsPerHour trace microseconds.
  EXPECT_DOUBLE_EQ(runs[0].value, 2.0 * obs::kTraceUsPerHour);
  EXPECT_DOUBLE_EQ(runs[1].value, 2.0 * obs::kTraceUsPerHour);
  // Back-to-back: job1 starts when job0 ends, so the virtual timestamps
  // are monotone.
  EXPECT_DOUBLE_EQ(runs[1].ts_us, runs[0].ts_us + runs[0].value);
  // Job identity travels in the context.
  EXPECT_EQ(runs[0].ctx.job_id(), 1u);
  EXPECT_EQ(runs[1].ctx.job_id(), 2u);
  // Both rendered on the same track: the site's, the only one allocated.
  const auto tracks = recorder.track_names();
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].second, "site TestSite");
  EXPECT_EQ(runs[0].track, tracks[0].first);
  EXPECT_EQ(runs[1].track, tracks[0].first);

  // The second job waited in the queue: its queued span must abut its run
  // span ([submit, start) then [start, end)).
  const auto queued = named(drained, "grid.job.queued");
  ASSERT_FALSE(queued.empty());
  const auto& waited = queued.back();
  EXPECT_EQ(waited.ctx.job_id(), 2u);
  EXPECT_DOUBLE_EQ(waited.ts_us + waited.value, runs[1].ts_us);

  std::ostringstream os;
  obs::write_chrome_trace(os, drained, recorder, "des");
  EXPECT_TRUE(spice::json_is_valid(os.str()));
}

TEST(DesTracing, OutageEmitsForwardDatedSpan) {
  obs::set_recorder_enabled(true);
  obs::FlightRecorder recorder(64);
  grid::EventQueue events;
  events.set_recorder(&recorder);
  grid::SiteSpec spec;
  spec.name = "Fragile";
  grid::Site site(spec, events);

  events.at(5.0, [&site] { site.fail_until(12.0); });
  events.run_until(20.0);

  const auto outages = named(recorder.drain(), "grid.site.outage");
  ASSERT_EQ(outages.size(), 1u);
  EXPECT_EQ(outages[0].kind, obs::RecordKind::Span);
  EXPECT_DOUBLE_EQ(outages[0].ts_us, 5.0 * obs::kTraceUsPerHour);
  EXPECT_DOUBLE_EQ(outages[0].value, 7.0 * obs::kTraceUsPerHour);
}

}  // namespace
