#pragma once
// spice::obs — subsystem liveness: stall watchdog (DESIGN.md §8).
//
// Two ways for a subsystem to prove it is alive:
//
//   * Counter probe — the watchdog watches an existing obs counter
//     (md.engine.steps, pool.parallel_for.calls, ...) and treats "value
//     unchanged across the deadline" as a stall. The hot path needs no new
//     instrumentation; whatever already counts progress is the proof.
//   * Gauge band probe — the watchdog watches an existing obs gauge
//     (hub.ring.occupancy, queue depths, ...) and treats "value stuck
//     outside [lo, hi] for the whole deadline window" as a stall: a full
//     ring that never drains and an empty one that never fills are both
//     wedged states a counter can't see.
//
// The Watchdog polls all registered entries — manually (poll(), for
// deterministic tests and single-threaded drivers) or from a background
// thread (start()/stop()). Alerts are edge-triggered: one alert when an
// entry crosses Healthy → Stalled, none while it stays stalled, and the
// entry re-arms when progress resumes. Each alert goes to the log
// (SPICE_WARN), to the flight recorder as a "health.stall" instant, and
// onto the obs.health.alerts counter; a recovery records
// "health.recovered".

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace spice::obs {

/// Point-in-time liveness of one watched entry (status() report rows).
struct HealthStatus {
  std::string name;
  bool stalled = false;
  double silent_s = 0.0;        ///< time since last observed progress
  double deadline_s = 0.0;
  std::uint64_t alerts = 0;     ///< stall episodes so far for this entry
};

struct WatchdogConfig {
  /// Deadline applied when an entry is registered with deadline_s <= 0.
  double default_deadline_s = 5.0;
  /// Background poll cadence for start(); poll() ignores it.
  double period_s = 1.0;
};

class Watchdog {
 public:
  explicit Watchdog(WatchdogConfig config = {}, MetricsRegistry& registry = metrics());
  /// Joins the background thread if running.
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Watch an existing counter: progress = the summed value changing.
  /// `counter` must outlive the watchdog (registry handles do).
  void watch_counter(const std::string& name, const Counter& counter,
                     double deadline_s = 0.0);

  /// Watch an existing gauge: healthy = value inside [band_lo, band_hi]
  /// (inclusive). The entry stalls when the value sits outside the band
  /// continuously for the deadline window; one sample back in band
  /// re-arms it. `gauge` must outlive the watchdog (registry handles do).
  void watch_gauge(const std::string& name, const Gauge& gauge, double band_lo,
                   double band_hi, double deadline_s = 0.0);

  /// Check every entry once; fires edge-triggered alerts for new stalls.
  /// Returns the number of alerts fired by this poll.
  std::size_t poll();

  /// Launch/stop the background polling thread. Idempotent.
  void start();
  void stop();

  [[nodiscard]] std::vector<HealthStatus> status() const;
  /// Total stall alerts fired over the watchdog's lifetime.
  [[nodiscard]] std::uint64_t alert_count() const;

 private:
  struct Entry {
    std::string name;
    double deadline_s = 0.0;
    bool stalled = false;
    std::uint64_t alerts = 0;
    // Counter entries watch `counter`; gauge entries watch `gauge`
    // against [band_lo, band_hi].
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    double band_lo = 0.0;              ///< gauge entries
    double band_hi = 0.0;              ///< gauge entries
    std::uint64_t last_value = 0;      ///< counter entries
    double last_progress_us = 0.0;
  };

  void alert(const Entry& entry, double silent_s);
  void recovered(const Entry& entry);
  void thread_main();

  WatchdogConfig config_;
  MetricsRegistry& registry_;
  Counter& alerts_counter_;
  Counter& polls_counter_;

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::uint64_t total_alerts_ = 0;

  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace spice::obs
