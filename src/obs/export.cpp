#include "obs/export.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "obs/recorder.hpp"

namespace spice::obs {

namespace {

/// Shortest round-trippable decimal for a double ("%.17g" is exact but
/// ugly; try increasing precision until the value parses back equal).
std::string fmt_double(double v) {
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out.front() >= '0' && out.front() <= '9') out.insert(out.begin(), '_');
  return out;
}

void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const auto& c : snapshot.counters) {
    const std::string name = prometheus_name(c.name);
    os << "# TYPE " << name << " counter\n" << name << " " << c.value << "\n";
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = prometheus_name(g.name);
    os << "# TYPE " << name << " gauge\n" << name << " " << fmt_double(g.value) << "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = prometheus_name(h.name);
    os << "# TYPE " << name << " histogram\n";
    // Prometheus buckets are cumulative; ours are per-bucket counts.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      cumulative += h.counts[b];
      os << name << "_bucket{le=\"" << fmt_double(h.bounds[b]) << "\"} " << cumulative
         << "\n";
    }
    os << name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << name << "_sum " << fmt_double(h.sum) << "\n";
    os << name << "_count " << h.count << "\n";
  }
  // Interpolated quantile summary per histogram — precomputed so a reader
  // (or a dashboard without PromQL) gets p50/p95/p99 directly.
  for (const auto& h : snapshot.histograms) {
    if (h.count == 0) continue;
    const std::string name = prometheus_name(h.name) + "_quantile";
    os << "# TYPE " << name << " gauge\n";
    for (const double q : {0.5, 0.95, 0.99}) {
      os << name << "{q=\"" << fmt_double(q) << "\"} " << fmt_double(h.quantile(q))
         << "\n";
    }
  }
}

std::string jsonl_delta_record(const MetricsSnapshot& prev, const MetricsSnapshot& cur,
                               std::uint64_t seq, double t_us) {
  std::string out = "{\"seq\":" + std::to_string(seq) + ",\"t_us\":" + fmt_double(t_us);

  // Both snapshots are sorted by name (registry contract): two-pointer
  // walks find changed entries without building lookup maps.
  out += ",\"counters\":{";
  {
    bool first = true;
    std::size_t p = 0;
    for (const auto& c : cur.counters) {
      while (p < prev.counters.size() && prev.counters[p].name < c.name) ++p;
      const std::uint64_t before =
          (p < prev.counters.size() && prev.counters[p].name == c.name)
              ? prev.counters[p].value
              : 0;
      if (c.value == before) continue;
      if (!first) out += ',';
      first = false;
      // Counters are monotonic, but a registry reset() between exports
      // makes the delta negative; emit the signed difference so sums
      // still reconcile.
      out += json_quote(c.name) + ':' +
             std::to_string(static_cast<std::int64_t>(c.value - before));
    }
  }
  out += "},\"gauges\":{";
  {
    bool first = true;
    std::size_t p = 0;
    for (const auto& g : cur.gauges) {
      while (p < prev.gauges.size() && prev.gauges[p].name < g.name) ++p;
      const bool seen = p < prev.gauges.size() && prev.gauges[p].name == g.name;
      const double before = seen ? prev.gauges[p].value : 0.0;
      if (seen && g.value == before) continue;
      if (!seen && g.value == 0.0) continue;
      if (!first) out += ',';
      first = false;
      out += json_quote(g.name) + ':' + fmt_double(g.value);
    }
  }
  out += "},\"histograms\":{";
  {
    bool first = true;
    std::size_t p = 0;
    for (const auto& h : cur.histograms) {
      while (p < prev.histograms.size() && prev.histograms[p].name < h.name) ++p;
      const std::uint64_t before =
          (p < prev.histograms.size() && prev.histograms[p].name == h.name)
              ? prev.histograms[p].count
              : 0;
      if (h.count == before) continue;
      if (!first) out += ',';
      first = false;
      out += json_quote(h.name) + ':' +
             std::to_string(static_cast<std::int64_t>(h.count - before));
    }
  }
  out += "}}";
  return out;
}

void update_self_metrics(MetricsRegistry& registry) {
  if (!metrics_on()) return;
  registry.gauge("obs.recorder.recorded")
      .set(static_cast<double>(flight_recorder().recorded_count()));
  registry.gauge("obs.recorder.overwritten")
      .set(static_cast<double>(flight_recorder().overwritten_count()));
  registry.gauge("obs.metrics.counter_shards").set(static_cast<double>(Counter::kShards));
  // Take the sizes BEFORE setting the registered_* gauges so the values
  // do not count gauges this very call is about to create... they do on
  // the first call; from the second call on, the numbers are stable.
  const auto sizes = registry.sizes();
  registry.gauge("obs.metrics.registered_counters").set(static_cast<double>(sizes.counters));
  registry.gauge("obs.metrics.registered_gauges").set(static_cast<double>(sizes.gauges));
  registry.gauge("obs.metrics.registered_histograms")
      .set(static_cast<double>(sizes.histograms));
}

SnapshotExporter::SnapshotExporter(ExporterConfig config, MetricsRegistry& registry)
    : config_(std::move(config)), registry_(registry) {
  SPICE_REQUIRE(config_.period_s > 0.0, "exporter period must be positive");
}

SnapshotExporter::~SnapshotExporter() { stop(); }

void SnapshotExporter::start() {
  std::unique_lock lock(mutex_);
  if (running_) return;
  running_ = true;
  stop_requested_ = false;
  seq_ = 0;
  last_ = MetricsSnapshot{};
  lock.unlock();
  // Fresh JSONL series per run; the prometheus file is rewritten anyway.
  if (!config_.jsonl_path.empty()) {
    std::ofstream truncate(config_.jsonl_path, std::ios::trunc);
    SPICE_REQUIRE(truncate.is_open(), "could not open jsonl output: " + config_.jsonl_path);
  }
  thread_ = std::thread(&SnapshotExporter::thread_main, this);
}

void SnapshotExporter::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard lock(mutex_);
  running_ = false;
}

bool SnapshotExporter::running() const {
  std::lock_guard lock(mutex_);
  return running_ && !stop_requested_;
}

std::uint64_t SnapshotExporter::exports_written() const {
  std::lock_guard lock(mutex_);
  return exports_;
}

void SnapshotExporter::export_snapshot(const MetricsSnapshot& snapshot) {
  if (!config_.prometheus_path.empty()) {
    // Rewrite via a temp file + rename so a concurrent reader never sees
    // a torn exposition.
    const std::string tmp = config_.prometheus_path + ".tmp";
    {
      std::ofstream file(tmp, std::ios::trunc);
      SPICE_REQUIRE(file.is_open(), "could not open prometheus output: " + tmp);
      write_prometheus(file, snapshot);
    }
    std::rename(tmp.c_str(), config_.prometheus_path.c_str());
  }
  if (!config_.jsonl_path.empty()) {
    std::ofstream file(config_.jsonl_path, std::ios::app);
    SPICE_REQUIRE(file.is_open(), "could not open jsonl output: " + config_.jsonl_path);
    file << jsonl_delta_record(last_, snapshot, seq_, now_us()) << "\n";
  }
  last_ = snapshot;
  ++seq_;
  registry_.counter("obs.export.snapshots").add(1);
  {
    std::lock_guard lock(mutex_);
    ++exports_;
  }
}

void SnapshotExporter::take_and_export_self_sample() {
  update_self_metrics(registry_);
  export_snapshot(registry_.snapshot());
}

void SnapshotExporter::thread_main() {
  double next_sample_us = now_us();
  for (;;) {
    std::unique_lock lock(mutex_);
    const double wait_us = next_sample_us - now_us();
    if (wait_us > 0.0) {
      cv_.wait_for(lock, std::chrono::microseconds(static_cast<std::int64_t>(wait_us)),
                   [this] { return stop_requested_; });
    }
    const bool stopping = stop_requested_;
    lock.unlock();

    if (now_us() >= next_sample_us || stopping) {
      take_and_export_self_sample();
      next_sample_us = now_us() + config_.period_s * 1e6;
    }
    if (stopping) return;
  }
}

}  // namespace spice::obs
