#pragma once
// spice::obs — periodic snapshot export (DESIGN.md §8, mission control).
//
// A SnapshotExporter turns the in-process metrics registry into files an
// operator (or a scrape loop) can watch while a campaign runs:
//
//   * Prometheus text exposition — the full current state, atomically
//     rewritten on every export (names sanitized `a.b.c` → `a_b_c`,
//     histograms as `_bucket{le=...}` / `_sum` / `_count` families).
//   * JSONL delta series — one JSON object appended per export holding
//     only the metrics that CHANGED since the previous export, so the
//     file is an incremental time series rather than repeated dumps.
//     Counter deltas sum exactly to the final counter values (exactness
//     on quiesce is inherited from the registry).
//
// Threading model: the exporter self-samples the registry on a fixed
// cadence from its own background thread, so no producer ever waits on
// the disk. stop() takes one final sample after the writers quiesced and
// joins — that last record is what makes the JSONL counter deltas sum
// exactly to the final registry values.
//
// The exporter also maintains the observability-of-the-observability
// gauges (update_self_metrics): flight-recorder totals, registry sizes and
// the counter shard count, refreshed before every self-sample so the
// exposition reports on the subsystem itself.

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace spice::obs {

/// Write a snapshot as Prometheus text exposition (text/plain version
/// 0.0.4): `# TYPE` headers, sanitized names, histogram bucket families
/// with a cumulative `+Inf` bucket.
void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot);

/// Sanitize a metric name for the exposition format: every character
/// outside [a-zA-Z0-9_:] becomes '_' (so "md.engine.steps" →
/// "md_engine_steps"); a leading digit gains a '_' prefix.
[[nodiscard]] std::string prometheus_name(std::string_view name);

/// One JSONL delta record between two snapshots: a single-line JSON
/// object {"seq":N,"t_us":T,"counters":{...},"gauges":{...},
/// "histograms":{...}} listing only metrics whose value changed from
/// `prev` (metrics absent from `prev` count from zero). Counters carry
/// their delta, gauges their new value, histograms their count delta.
[[nodiscard]] std::string jsonl_delta_record(const MetricsSnapshot& prev,
                                             const MetricsSnapshot& cur, std::uint64_t seq,
                                             double t_us);

/// Refresh the self-monitoring gauges in `registry`:
///   obs.recorder.recorded / obs.recorder.overwritten  (process flight recorder)
///   obs.metrics.counter_shards                        (Counter::kShards)
///   obs.metrics.registered_counters / _gauges / _histograms
/// No-op while metrics are disabled (gauge writes are gated).
void update_self_metrics(MetricsRegistry& registry = metrics());

struct ExporterConfig {
  /// Prometheus exposition file, rewritten per export ("" = skip).
  std::string prometheus_path;
  /// JSONL delta series, appended per export ("" = skip). Truncated at
  /// start() so each run owns its series.
  std::string jsonl_path;
  /// Self-sampling cadence, seconds (> 0).
  double period_s = 1.0;
};

class SnapshotExporter {
 public:
  /// Exports `registry` (defaults to the process-wide instance).
  explicit SnapshotExporter(ExporterConfig config, MetricsRegistry& registry = metrics());
  /// Joins the thread; equivalent to stop() if still running.
  ~SnapshotExporter();

  SnapshotExporter(const SnapshotExporter&) = delete;
  SnapshotExporter& operator=(const SnapshotExporter&) = delete;

  /// Launch the background export thread. Idempotent.
  void start();
  /// Clean shutdown: self-sample one final time, flush files, join.
  /// Idempotent.
  void stop();
  [[nodiscard]] bool running() const;

  /// Snapshots written so far.
  [[nodiscard]] std::uint64_t exports_written() const;

 private:
  void thread_main();
  void export_snapshot(const MetricsSnapshot& snapshot);
  void take_and_export_self_sample();

  ExporterConfig config_;
  MetricsRegistry& registry_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_requested_ = false;
  std::uint64_t exports_ = 0;
  std::thread thread_;

  // Export-thread state (no lock needed: only thread_main touches these
  // after start, and stop() joins before reading).
  MetricsSnapshot last_;
  std::uint64_t seq_ = 0;
};

}  // namespace spice::obs
