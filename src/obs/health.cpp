#include "obs/health.hpp"

#include <chrono>
#include <cstdio>

#include "common/log.hpp"
#include "obs/postmortem.hpp"
#include "obs/recorder.hpp"

namespace spice::obs {

Watchdog::Watchdog(WatchdogConfig config, MetricsRegistry& registry)
    : config_(config),
      registry_(registry),
      alerts_counter_(registry.counter("obs.health.alerts")),
      polls_counter_(registry.counter("obs.health.polls")) {}

Watchdog::~Watchdog() { stop(); }

void Watchdog::watch_counter(const std::string& name, const Counter& counter,
                             double deadline_s) {
  std::lock_guard lock(mutex_);
  Entry& entry = entries_.emplace_back();
  entry.name = name;
  entry.deadline_s = deadline_s > 0.0 ? deadline_s : config_.default_deadline_s;
  entry.counter = &counter;
  entry.last_value = counter.value();
  entry.last_progress_us = now_us();
}

void Watchdog::watch_gauge(const std::string& name, const Gauge& gauge, double band_lo,
                           double band_hi, double deadline_s) {
  std::lock_guard lock(mutex_);
  Entry& entry = entries_.emplace_back();
  entry.name = name;
  entry.deadline_s = deadline_s > 0.0 ? deadline_s : config_.default_deadline_s;
  entry.gauge = &gauge;
  entry.band_lo = band_lo;
  entry.band_hi = band_hi;
  entry.last_progress_us = now_us();
}

void Watchdog::alert(const Entry& entry, double silent_s) {
  char msg[224];
  if (entry.gauge != nullptr) {
    std::snprintf(msg, sizeof(msg),
                  "watchdog: '%s' stalled — gauge %.3g outside [%.3g, %.3g] for %.2f s (deadline %.2f s)",
                  entry.name.c_str(), entry.gauge->value(), entry.band_lo, entry.band_hi,
                  silent_s, entry.deadline_s);
  } else {
    std::snprintf(msg, sizeof(msg), "watchdog: '%s' stalled — no progress for %.2f s (deadline %.2f s)",
                  entry.name.c_str(), silent_s, entry.deadline_s);
  }
  SPICE_WARN(msg);
  alerts_counter_.add(1);
  flight_recorder().record(RecordKind::Instant, "health.stall");
  notify_stall_for_post_mortem(entry.name);
}

void Watchdog::recovered(const Entry& entry) {
  SPICE_INFO("watchdog: '" + entry.name + "' recovered");
  flight_recorder().record(RecordKind::Instant, "health.recovered");
}

std::size_t Watchdog::poll() {
  std::lock_guard lock(mutex_);
  polls_counter_.add(1);
  const double now = now_us();
  std::size_t fired = 0;
  for (Entry& entry : entries_) {
    if (entry.gauge != nullptr) {
      const double value = entry.gauge->value();
      if (value >= entry.band_lo && value <= entry.band_hi) {
        entry.last_progress_us = now;  // in band = healthy
      }
    } else {
      const std::uint64_t value = entry.counter->value();
      if (value != entry.last_value) {
        entry.last_value = value;
        entry.last_progress_us = now;
      }
    }
    const double silent_s = (now - entry.last_progress_us) * 1e-6;
    if (!entry.stalled && silent_s > entry.deadline_s) {
      entry.stalled = true;
      ++entry.alerts;
      ++total_alerts_;
      ++fired;
      alert(entry, silent_s);
    } else if (entry.stalled && silent_s <= entry.deadline_s) {
      entry.stalled = false;  // re-arm: the next stall episode alerts again
      recovered(entry);
    }
  }
  return fired;
}

void Watchdog::start() {
  std::lock_guard lock(mutex_);
  if (running_) return;
  running_ = true;
  stop_requested_ = false;
  thread_ = std::thread(&Watchdog::thread_main, this);
}

void Watchdog::stop() {
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

void Watchdog::thread_main() {
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      cv_.wait_for(lock,
                   std::chrono::microseconds(
                       static_cast<std::int64_t>(config_.period_s * 1e6)),
                   [this] { return stop_requested_; });
      if (stop_requested_) return;
    }
    poll();
  }
}

std::vector<HealthStatus> Watchdog::status() const {
  std::lock_guard lock(mutex_);
  const double now = now_us();
  std::vector<HealthStatus> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    out.push_back({entry.name, entry.stalled, (now - entry.last_progress_us) * 1e-6,
                   entry.deadline_s, entry.alerts});
  }
  return out;
}

std::uint64_t Watchdog::alert_count() const {
  std::lock_guard lock(mutex_);
  return total_alerts_;
}

}  // namespace spice::obs
