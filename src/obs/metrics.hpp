#pragma once
// spice::obs — process-wide metrics substrate (DESIGN.md §8).
//
// Named counters, gauges and fixed-bucket histograms behind one registry.
// The design goal is a hot path the MD engine can afford: a Counter::add
// from a worker thread is one relaxed atomic add into a thread-sharded,
// cache-line-padded cell, and when the subsystem is disabled the whole
// call collapses to a single relaxed flag load and a predictable branch
// (or to nothing at all when compiled out with SPICE_OBS=OFF).
//
// Metric names follow the layer.component.verb convention, e.g.
// "md.engine.steps", "pool.parallel_for.imbalance", "grid.des.events".
//
// Handles returned by the registry are stable for the registry's lifetime;
// hot call sites resolve a metric once and cache the reference.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace spice::obs {

// --- kill switches --------------------------------------------------------
//
// Compile-time: building with -DSPICE_OBS=OFF defines SPICE_OBS_ENABLED=0;
// kCompiledIn then folds every guard to `false` and dead-code elimination
// removes the instrumentation entirely. Runtime: metrics (and the detail
// tier on top of them) default OFF so uninstrumented workloads pay only
// the flag load; the flight recorder (obs/recorder) defaults ON.

#if !defined(SPICE_OBS_ENABLED)
#define SPICE_OBS_ENABLED 1
#endif

inline constexpr bool kCompiledIn = (SPICE_OBS_ENABLED != 0);

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
extern std::atomic<bool> g_detail_enabled;
}  // namespace detail

/// True when metric recording is compiled in AND runtime-enabled.
inline bool metrics_on() {
  return kCompiledIn && detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
/// Fine-grained attribution (per-kernel force timings and the per-phase
/// force-evaluation spans). Requires metrics.
inline bool detail_on() {
  return metrics_on() && detail::g_detail_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on);
void set_detail_enabled(bool on);

/// Microseconds since process anchor (common/log's uptime clock), as a
/// double so fractional µs survive. Monotonic.
[[nodiscard]] double now_us();

// --- metric kinds ---------------------------------------------------------

/// Monotonic counter, sharded by thread to keep concurrent adds off a
/// shared cache line. value() sums the shards (weakly consistent while
/// writers are active; exact once they quiesce).
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1) {
    if (!metrics_on()) return;
    shards_[shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }

  void reset() {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  [[nodiscard]] static std::size_t shard_index();

  std::array<Shard, kShards> shards_{};
};

/// Last-write-wins scalar (queue depths, temperatures, free processors).
class Gauge {
 public:
  void set(double v) {
    if (!metrics_on()) return;
    store(v);
  }
  /// Atomic read-modify-write add (rarely hot; CAS loop).
  void add(double v);
  [[nodiscard]] double value() const;
  void reset() { store(0.0); }

 private:
  void store(double v);
  std::atomic<std::uint64_t> bits_{0};  ///< bit-cast double
};

/// Fixed-bucket histogram. Value v lands in the first bucket whose upper
/// bound satisfies v <= bound; values above the last bound land in the
/// overflow bucket (bucket_counts().back()). Bounds are fixed at creation.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; last is the overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  ///< bit-cast double, CAS-accumulated
};

// --- snapshot -------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;          ///< upper bounds
  std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;

  [[nodiscard]] double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }

  /// Interpolated quantile estimate (Prometheus `histogram_quantile`
  /// style): find the bucket holding rank q·count, interpolate linearly
  /// inside it assuming uniform spread; the first bucket's lower edge is
  /// taken as 0 and the overflow bucket clamps to the highest bound, so
  /// the estimate never invents values outside the configured range.
  /// Returns 0 when the histogram is empty. `q` is clamped to [0, 1].
  [[nodiscard]] double quantile(double q) const;
};

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Value of a counter by exact name (0 when absent) — test/report sugar.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
};

// --- registry -------------------------------------------------------------

/// Registry of named metrics. Lookup locks a mutex (resolve once, cache
/// the reference); recording never locks. Instantiable for tests; library
/// code uses the process-wide metrics() instance.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. References stay valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` is consumed on first creation; later calls with the
  /// same name return the existing histogram regardless of bounds.
  Histogram& histogram(std::string_view name, std::span<const double> upper_bounds);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Registered-metric counts per kind (self-monitoring gauges).
  struct Sizes {
    std::size_t counters = 0;
    std::size_t gauges = 0;
    std::size_t histograms = 0;
  };
  [[nodiscard]] Sizes sizes() const;

  /// Zero every metric (benches isolating phases). Handles stay valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry every library layer records into.
[[nodiscard]] MetricsRegistry& metrics();

}  // namespace spice::obs
