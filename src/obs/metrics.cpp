#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "common/instrument.hpp"
#include "common/log.hpp"

namespace spice::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
std::atomic<bool> g_detail_enabled{false};
}  // namespace detail

namespace {

// ThreadPool instrumentation hooks (common/instrument.hpp). The pool hands
// us one wall time per chunk after each parallel_for barrier; busy is the
// sum, idle is the time the fast lanes spent waiting on the slowest chunk,
// and imbalance = idle / (chunks * slowest) ∈ [0, 1) feeds a histogram so
// skewed force-evaluation partitions show up in snapshots.
void record_pool_sample(std::size_t chunks, const double* durations_us) {
  static Counter& calls = metrics().counter("pool.parallel_for.calls");
  static Counter& busy_us = metrics().counter("pool.worker.busy_us");
  static Counter& idle_us = metrics().counter("pool.worker.idle_us");
  static constexpr double kBounds[] = {0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75};
  static Histogram& imbalance = metrics().histogram("pool.parallel_for.imbalance", kBounds);
  double busy = 0.0;
  double slowest = 0.0;
  for (std::size_t i = 0; i < chunks; ++i) {
    busy += durations_us[i];
    slowest = std::max(slowest, durations_us[i]);
  }
  calls.add(1);
  busy_us.add(static_cast<std::uint64_t>(busy));
  if (slowest > 0.0) {
    const double idle = static_cast<double>(chunks) * slowest - busy;
    idle_us.add(static_cast<std::uint64_t>(idle));
    imbalance.record(idle / (static_cast<double>(chunks) * slowest));
  }
}

constexpr PoolInstrumentation kPoolHooks{&metrics_on, &now_us, &record_pool_sample};

}  // namespace

void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(kCompiledIn && on, std::memory_order_relaxed);
  // Hooks stay installed once metrics have ever been on; the pool's
  // enabled() gate (metrics_on) handles later disables.
  if (kCompiledIn && on) set_pool_instrumentation(&kPoolHooks);
}
void set_detail_enabled(bool on) {
  detail::g_detail_enabled.store(kCompiledIn && on, std::memory_order_relaxed);
}

double now_us() { return uptime_seconds() * 1e6; }

std::size_t Counter::shard_index() {
  // thread_index() is a small dense per-thread id (common/log); with the
  // typical pool sizes every worker gets a private shard.
  return thread_index() % kShards;
}

void Gauge::store(double v) {
  bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
}

double Gauge::value() const {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

void Gauge::add(double v) {
  if (!metrics_on()) return;
  std::uint64_t cur = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(
                                               std::bit_cast<double>(cur) + v),
                                      std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  SPICE_REQUIRE(!bounds_.empty(), "histogram needs at least one bucket bound");
  SPICE_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bounds must be ascending");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::record(double v) {
  if (!metrics_on()) return;
  // First bucket with v <= bound; ties land in the lower bucket so that a
  // value exactly on an edge is assigned deterministically.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t cur = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(
                                                   std::bit_cast<double>(cur) + v),
                                          std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

double HistogramSample::quantile(double q) const {
  if (count == 0 || counts.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t in_bucket = counts[i];
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < rank || in_bucket == 0) continue;
    if (i >= bounds.size()) {
      // Overflow bucket has no upper edge; clamp to the highest bound.
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    const double below = static_cast<double>(cumulative - in_bucket);
    const double frac = (rank - below) / static_cast<double>(in_bucket);
    return lower + (upper - lower) * std::min(1.0, std::max(0.0, frac));
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> upper_bounds) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(
                          std::vector<double>(upper_bounds.begin(), upper_bounds.end())))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.push_back({name, c->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.push_back({name, g->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(
        {name, h->bounds(), h->bucket_counts(), h->count(), h->sum()});
  }
  return snap;  // std::map iteration order is sorted by name already
}

MetricsRegistry::Sizes MetricsRegistry::sizes() const {
  std::lock_guard lock(mutex_);
  return {counters_.size(), gauges_.size(), histograms_.size()};
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (const auto& [_, c] : counters_) c->reset();
  for (const auto& [_, g] : gauges_) g->reset();
  for (const auto& [_, h] : histograms_) h->reset();
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace spice::obs
