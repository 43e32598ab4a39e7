// spice::obs mission-control layer — snapshot exporter + health watchdog.
//
// The contracts under test:
//   * the Prometheus exposition is well-formed: sanitized names, # TYPE
//     headers, cumulative bucket families ending in +Inf;
//   * JSONL delta records are valid JSON (checked with the repo's own
//     validator) and list only the metrics that changed;
//   * counter deltas across a whole export series sum EXACTLY to the final
//     registry value, even with a concurrent writer (exactness on quiesce);
//   * the watchdog is edge-triggered: an injected stall fires exactly one
//     alert, recovery re-arms, and a healthy run fires none.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/obs.hpp"

namespace {

using namespace spice;

struct ObsGuard {
  explicit ObsGuard(bool metrics) { obs::set_metrics_enabled(metrics); }
  ~ObsGuard() { obs::set_metrics_enabled(false); }
};

/// Read a whole file (exposition checks).
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Extract the integer following `"name":` in a JSONL record (0 if the
/// metric did not change in that record).
long long delta_in_record(const std::string& line, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const auto pos = line.find(key);
  if (pos == std::string::npos) return 0;
  return std::stoll(line.substr(pos + key.size()));
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// --- prometheus exposition -------------------------------------------------

TEST(PrometheusExport, SanitizesNames) {
  EXPECT_EQ(obs::prometheus_name("md.engine.steps"), "md_engine_steps");
  EXPECT_EQ(obs::prometheus_name("pool.parallel_for.calls"), "pool_parallel_for_calls");
  EXPECT_EQ(obs::prometheus_name("rtt (ms)"), "rtt__ms_");
  EXPECT_EQ(obs::prometheus_name("ns:sub"), "ns:sub");
  EXPECT_EQ(obs::prometheus_name("9lives"), "_9lives");
}

TEST(PrometheusExport, WritesTypedFamiliesWithCumulativeBuckets) {
  ObsGuard guard(/*metrics=*/true);
  obs::MetricsRegistry registry;
  registry.counter("test.export.pulls").add(7);
  registry.gauge("test.export.temp").set(305.5);
  const std::array<double, 2> bounds{1.0, 10.0};
  obs::Histogram& h = registry.histogram("test.export.latency", bounds);
  h.record(0.5);   // bucket le=1
  h.record(5.0);   // bucket le=10
  h.record(99.0);  // overflow -> only +Inf

  std::ostringstream os;
  obs::write_prometheus(os, registry.snapshot());
  const std::string text = os.str();

  EXPECT_NE(text.find("# TYPE test_export_pulls counter"), std::string::npos);
  EXPECT_NE(text.find("test_export_pulls 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_export_temp gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_export_latency histogram"), std::string::npos);
  // Buckets are CUMULATIVE: 1, 2, and +Inf = total count 3.
  EXPECT_NE(text.find("test_export_latency_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_export_latency_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("test_export_latency_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("test_export_latency_count 3"), std::string::npos);
}

// --- jsonl delta records ---------------------------------------------------

TEST(JsonlDelta, ListsOnlyChangedMetricsAndParsesBack) {
  ObsGuard guard(/*metrics=*/true);
  obs::MetricsRegistry registry;
  obs::Counter& moving = registry.counter("test.delta.moving");
  registry.counter("test.delta.frozen").add(5);
  obs::Gauge& gauge = registry.gauge("test.delta.gauge");
  gauge.set(1.0);

  moving.add(3);
  const obs::MetricsSnapshot prev = registry.snapshot();
  moving.add(4);
  gauge.set(2.5);
  const obs::MetricsSnapshot cur = registry.snapshot();

  const std::string record = obs::jsonl_delta_record(prev, cur, /*seq=*/3, /*t_us=*/1250.0);
  EXPECT_TRUE(json_is_valid(record)) << record;
  EXPECT_EQ(delta_in_record(record, "test.delta.moving"), 4);  // delta, not total
  EXPECT_EQ(record.find("test.delta.frozen"), std::string::npos);  // unchanged
  EXPECT_NE(record.find("\"test.delta.gauge\":2.5"), std::string::npos);  // new value
  EXPECT_NE(record.find("\"seq\":3"), std::string::npos);
}

TEST(JsonlDelta, CountsMetricsAbsentFromPrevFromZero) {
  ObsGuard guard(/*metrics=*/true);
  obs::MetricsRegistry registry;
  const obs::MetricsSnapshot prev = registry.snapshot();  // empty
  registry.counter("test.delta.born").add(9);
  const obs::MetricsSnapshot cur = registry.snapshot();

  const std::string record = obs::jsonl_delta_record(prev, cur, 0, 0.0);
  EXPECT_TRUE(json_is_valid(record));
  EXPECT_EQ(delta_in_record(record, "test.delta.born"), 9);
}

// --- self metrics ----------------------------------------------------------

TEST(SelfMetrics, PublishesRegistryAndTracerGauges) {
  ObsGuard guard(/*metrics=*/true);
  obs::MetricsRegistry registry;
  registry.counter("test.self.anything");
  obs::update_self_metrics(registry);
  obs::update_self_metrics(registry);  // sizes stable from the second call

  const obs::MetricsSnapshot snapshot = registry.snapshot();
  double shards = -1.0;
  double counters = -1.0;
  double recorded = -1.0;
  double overwritten = -1.0;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "obs.metrics.counter_shards") shards = gauge.value;
    if (gauge.name == "obs.metrics.registered_counters") counters = gauge.value;
    if (gauge.name == "obs.recorder.recorded") recorded = gauge.value;
    if (gauge.name == "obs.recorder.overwritten") overwritten = gauge.value;
  }
  EXPECT_EQ(shards, static_cast<double>(obs::Counter::kShards));
  EXPECT_GE(counters, 1.0);
  // The process recorder's totals, read at the call (the default-on
  // recorder may already hold events from earlier tests).
  EXPECT_GE(recorded, 0.0);
  EXPECT_GE(overwritten, 0.0);
  EXPECT_LE(overwritten, recorded);
}

// --- exporter lifecycle ----------------------------------------------------

TEST(SnapshotExporter, ExactTotalsAcrossConcurrentWriter) {
  ObsGuard guard(/*metrics=*/true);
  obs::MetricsRegistry registry;
  obs::Counter& work = registry.counter("test.exporter.work");

  obs::ExporterConfig config;
  config.prometheus_path = "test_obs_export.prom";
  config.jsonl_path = "test_obs_export.jsonl";
  config.period_s = 0.01;  // many exports while the writer runs
  obs::SnapshotExporter exporter(config, registry);
  exporter.start();
  EXPECT_TRUE(exporter.running());

  constexpr std::uint64_t kAdds = 200'000;
  std::thread writer([&work] {
    for (std::uint64_t i = 0; i < kAdds; ++i) {
      work.add(1);
      if (i % 50'000 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  writer.join();
  exporter.stop();  // final self-sample AFTER the writer quiesced
  EXPECT_FALSE(exporter.running());
  EXPECT_GE(exporter.exports_written(), 2u);

  // Counter deltas over the whole series reconcile exactly.
  long long total = 0;
  std::size_t invalid = 0;
  const std::vector<std::string> lines = read_lines(config.jsonl_path);
  ASSERT_FALSE(lines.empty());
  for (const auto& line : lines) {
    if (!json_is_valid(line)) ++invalid;
    total += delta_in_record(line, "test.exporter.work");
  }
  EXPECT_EQ(invalid, 0u);
  EXPECT_EQ(total, static_cast<long long>(kAdds));
  EXPECT_EQ(work.value(), kAdds);

  // The exposition file reflects the final state.
  const std::string prom = slurp(config.prometheus_path);
  EXPECT_NE(prom.find("# TYPE test_exporter_work counter"), std::string::npos);
  EXPECT_NE(prom.find("test_exporter_work 200000"), std::string::npos);

  std::remove(config.prometheus_path.c_str());
  std::remove(config.jsonl_path.c_str());
}

// --- watchdog --------------------------------------------------------------

TEST(Watchdog, InjectedStallFiresExactlyOneAlert) {
  ObsGuard guard(/*metrics=*/true);
  obs::MetricsRegistry registry;
  obs::Counter& progress = registry.counter("test.watchdog.progress");
  obs::Watchdog watchdog({.default_deadline_s = 0.01}, registry);
  watchdog.watch_counter("test-subsystem", progress);

  progress.add(1);
  EXPECT_EQ(watchdog.poll(), 0u);  // just progressed: healthy

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(watchdog.poll(), 1u);  // crossed the deadline: one alert
  EXPECT_EQ(watchdog.poll(), 0u);  // edge-triggered: silent while stalled
  EXPECT_EQ(watchdog.poll(), 0u);
  EXPECT_EQ(watchdog.alert_count(), 1u);

  const std::vector<obs::HealthStatus> status = watchdog.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].name, "test-subsystem");
  EXPECT_TRUE(status[0].stalled);
  EXPECT_EQ(status[0].alerts, 1u);

  // Recovery re-arms: the NEXT stall is a new episode.
  progress.add(1);
  EXPECT_EQ(watchdog.poll(), 0u);
  EXPECT_FALSE(watchdog.status()[0].stalled);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(watchdog.poll(), 1u);
  EXPECT_EQ(watchdog.alert_count(), 2u);

  // Alerts are mirrored onto the registry's counter.
  EXPECT_EQ(registry.snapshot().counter_value("obs.health.alerts"), 2u);
}

TEST(Watchdog, CounterProbeDetectsFrozenCounter) {
  ObsGuard guard(/*metrics=*/true);
  obs::MetricsRegistry registry;
  obs::Counter& steps = registry.counter("test.watchdog.steps");
  steps.add(10);

  obs::Watchdog watchdog({.default_deadline_s = 0.01}, registry);
  watchdog.watch_counter("md-steps", steps);

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  steps.add(1);                     // progress within the window
  EXPECT_EQ(watchdog.poll(), 0u);   // value changed: healthy

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(watchdog.poll(), 1u);   // frozen across the deadline
  EXPECT_EQ(watchdog.poll(), 0u);

  steps.add(5);
  EXPECT_EQ(watchdog.poll(), 0u);   // recovered
  EXPECT_FALSE(watchdog.status()[0].stalled);
}

TEST(Watchdog, HealthyRunFiresNoAlerts) {
  ObsGuard guard(/*metrics=*/true);
  obs::MetricsRegistry registry;
  obs::Counter& steps = registry.counter("test.watchdog.healthy");
  obs::Counter& beats = registry.counter("test.watchdog.beats");

  obs::Watchdog watchdog({.default_deadline_s = 60.0}, registry);
  watchdog.watch_counter("beating", beats);
  watchdog.watch_counter("counting", steps);

  for (int i = 0; i < 5; ++i) {
    beats.add(1);
    steps.add(1);
    EXPECT_EQ(watchdog.poll(), 0u);
  }
  EXPECT_EQ(watchdog.alert_count(), 0u);
  for (const auto& status : watchdog.status()) {
    EXPECT_FALSE(status.stalled) << status.name;
  }
}

TEST(Watchdog, BackgroundThreadStartsAndStopsCleanly) {
  ObsGuard guard(/*metrics=*/true);
  obs::MetricsRegistry registry;
  obs::Counter& progress = registry.counter("test.watchdog.bg");
  obs::Watchdog watchdog({.default_deadline_s = 60.0, .period_s = 0.005}, registry);
  watchdog.watch_counter("bg", progress);
  watchdog.start();
  for (int i = 0; i < 4; ++i) {
    progress.add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  watchdog.stop();
  EXPECT_EQ(watchdog.alert_count(), 0u);
  EXPECT_GT(registry.snapshot().counter_value("obs.health.polls"), 0u);
}

}  // namespace
