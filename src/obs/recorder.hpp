#pragma once
// spice::obs — the flight recorder: the one event sink (DESIGN.md §8).
//
// Per-thread lock-free bounded ring buffers of compact fixed-size binary
// events, overwriting oldest-first so the last N events per thread are
// always resident. Every event the system records lands here: wall-clock
// spans around pipeline phases and force evaluations, lifecycle marks,
// hub commands, watchdog alerts, and — in a caller-owned instance — the
// grid DES's virtual-clock Gantt chart. write_chrome_trace() turns any
// drain into Chrome trace-event JSON (Perfetto); the post-mortem dumper
// (obs/postmortem) uses the same writer when something wedges.
//
// Hot-path contract:
//   * record() is wait-free: one relaxed head load, five relaxed word
//     stores into the caller's own ring slot, one release head store.
//     No allocation after a thread's first event, no locks, ever. A ring
//     is 256 KiB at the default capacity, whatever the slot width.
//   * `name` MUST be a string literal (or otherwise immortal): events
//     store the pointer, not the characters. This is what keeps an event
//     at 40 bytes and the write at a handful of stores.
//   * One writer per ring: rings are keyed by thread_index() (dense ids
//     from common/log). drain() from any thread is safe against
//     concurrent writers — slots that may have been overwritten during
//     the copy are discarded, never returned torn.
//   * Every event carries a 32-bit track (the Chrome tid row): the
//     writer's thread_index() by default, or an explicit track from
//     new_track() — the DES puts one on each site and one on the broker.
//   * Recording only reads the clock and writes the ring — simulation
//     state is untouched, so recorder-on runs are byte-identical to
//     recorder-off runs (locked in by test_obs_recorder).
//
// The recorder is ON by default (that is the point); set_recorder_enabled
// (or SPICE_OBS=OFF at compile time) turns the write into one relaxed
// flag load.

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/context.hpp"
#include "obs/metrics.hpp"  // SPICE_OBS_ENABLED, now_us

namespace spice::obs {

namespace detail {
extern std::atomic<bool> g_recorder_enabled;
}  // namespace detail

/// True when flight recording is compiled in AND runtime-enabled
/// (default: enabled — the recorder is the always-on tier).
inline bool recorder_on() {
  return kCompiledIn && detail::g_recorder_enabled.load(std::memory_order_relaxed);
}
void set_recorder_enabled(bool on);

/// One simulated hour on the DES virtual timeline maps to its real number
/// of microseconds, so Perfetto's time axis reads directly as simulated
/// time.
inline constexpr double kTraceUsPerHour = 3.6e9;

/// Event kinds (the low byte of a slot's kind/track word).
enum class RecordKind : std::uint8_t {
  Span = 0,     ///< completed span; value = duration µs, ts = start
  Instant = 1,  ///< point event
  Count = 2,    ///< sampled numeric value (ring occupancy, lag, ...)
  Command = 3,  ///< steering command accepted; value = sequence number
  Mark = 4,     ///< lifecycle marker (job start/finish, connect, ...)
  Begin = 5,    ///< async span start; pairs with the End of equal
                ///< (name, ctx, value) — it may sit on another track
  End = 6,      ///< async span end
};

/// One decoded recorder event (drain output).
struct RecorderEvent {
  RecordKind kind = RecordKind::Instant;
  const char* name = nullptr;
  double ts_us = 0.0;
  double value = 0.0;
  TraceContext ctx;
  std::uint32_t track = 0;  ///< writer's thread_index(), or an explicit track
};

class FlightRecorder {
  /// name, ts, context, value, kind | track << 32.
  static constexpr std::size_t kWordsPerEvent = 5;

 public:
  static constexpr std::size_t kMaxThreads = 256;
  /// Default per-thread ring: 256 KiB (6553 events of 40 B) per recording
  /// thread, allocated lazily on the thread's first event.
  static constexpr std::size_t kDefaultCapacity = 256 * 1024 / (kWordsPerEvent * 8);
  /// record_at's default track: the writing thread's thread_index().
  static constexpr std::uint32_t kThreadTrack = ~0u;

  /// `capacity_per_thread` events per ring (at least 16).
  explicit FlightRecorder(std::size_t capacity_per_thread = kDefaultCapacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record one event on the calling thread's ring. `name` must be
  /// immortal (string literal). Near-free when the recorder is disabled.
  void record(RecordKind kind, const char* name, double value = 0.0) {
    if (!recorder_on()) return;
    record_at(kind, name, now_us(), value, current_context());
  }
  /// Full-control variant (explicit timestamp, context and track) — used
  /// by the span helper, by layers that carry a non-thread-local context,
  /// and by the DES, whose timestamps are simulated µs.
  void record_at(RecordKind kind, const char* name, double ts_us, double value,
                 TraceContext ctx, std::uint32_t track = kThreadTrack) {
    if (!recorder_on()) return;
    Ring* ring = ring_for_thread();
    if (ring == nullptr) return;  // ring table exhausted: drop silently
    if (track == kThreadTrack) track = ring->thread;
    const std::uint64_t index = ring->head.load(std::memory_order_relaxed);
    std::atomic<std::uint64_t>* w = ring->words.get() + ring->slot * kWordsPerEvent;
    w[0].store(reinterpret_cast<std::uint64_t>(name), std::memory_order_relaxed);
    w[1].store(bits_of(ts_us), std::memory_order_relaxed);
    w[2].store(ctx.bits, std::memory_order_relaxed);
    w[3].store(bits_of(value), std::memory_order_relaxed);
    w[4].store((std::uint64_t{track} << 32) | static_cast<std::uint64_t>(kind),
               std::memory_order_relaxed);
    ring->slot = ring->slot + 1 == capacity_ ? 0 : ring->slot + 1;
    ring->head.store(index + 1, std::memory_order_release);
  }

  /// Allocate a named track for events recorded with an explicit track
  /// (a DES site, the broker). Ids start at kMaxThreads, so they never
  /// collide with a thread's default track. Takes a lock: call it once
  /// per track, off the hot path.
  [[nodiscard]] std::uint32_t new_track(std::string name);
  /// (track, name) for every new_track() so far, in allocation order.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::string>> track_names() const;

  /// Copy out every thread's resident events, merged and sorted by
  /// timestamp. Safe against concurrent writers: events whose slot may
  /// have been rewritten during the copy are dropped, not returned torn.
  [[nodiscard]] std::vector<RecorderEvent> drain() const;

  /// Total events ever recorded (monotonic; resident ones are the last
  /// `capacity()` per thread).
  [[nodiscard]] std::uint64_t recorded_count() const;
  /// Events that have been overwritten (recorded − resident).
  [[nodiscard]] std::uint64_t overwritten_count() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Threads that have recorded at least one event.
  [[nodiscard]] std::size_t active_threads() const;

 private:

  struct Ring {
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
    std::atomic<std::uint64_t> head{0};
    std::uint32_t thread = 0;  ///< the owning thread's thread_index()
    std::size_t slot = 0;      ///< next slot to write (head % capacity); owner only
  };

  static std::uint64_t bits_of(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double double_of(std::uint64_t bits) {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Ring* ring_for_thread();

  std::size_t capacity_;
  /// Lazily allocated per-thread rings; slot = thread_index(). Published
  /// with release so a drainer that sees the pointer sees the words array.
  std::array<std::atomic<Ring*>, kMaxThreads> rings_{};
  mutable std::mutex tracks_mutex_;
  std::vector<std::string> track_names_;  ///< index = track − kMaxThreads
};

/// The process-wide recorder every instrumented layer writes into.
[[nodiscard]] FlightRecorder& flight_recorder();

/// The one Chrome trace-event JSON writer ({"traceEvents": [...]}, loads
/// in https://ui.perfetto.dev). `events` come from `source.drain()`, which
/// also supplies the track names and the overwritten count: a wrapped ring
/// adds an "N events overwritten" marker. Tracks render as tid rows (a
/// thread's default track as "thread N"); each event's Chrome `cat` is its
/// name up to the first '.'. Span → 'X', Begin/End → 'b'/'e' paired by
/// (name, ctx, value), Count → 'C', every other kind → 'i' with its value.
void write_chrome_trace(std::ostream& os, std::span<const RecorderEvent> events,
                        const FlightRecorder& source, std::string_view process_name);
/// Drain `recorder` and write_chrome_trace it to `path`; throws with the
/// failing path on I/O error.
void save_chrome_trace(const FlightRecorder& recorder, const std::string& path,
                       std::string_view process_name);

/// RAII span against the process recorder: one ring write at scope exit
/// (kind Span, ts = entry, value = duration µs). Context is captured at
/// exit so a scope that narrows the context stamps the narrowed id.
class RecordedSpan {
 public:
  explicit RecordedSpan(const char* name) {
    if (!recorder_on()) return;
    name_ = name;
    start_us_ = now_us();
  }
  ~RecordedSpan() {
    if (name_ == nullptr || !recorder_on()) return;
    flight_recorder().record_at(RecordKind::Span, name_, start_us_,
                                now_us() - start_us_, current_context());
  }
  RecordedSpan(const RecordedSpan&) = delete;
  RecordedSpan& operator=(const RecordedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  double start_us_ = 0.0;
};

}  // namespace spice::obs

#if SPICE_OBS_ENABLED
#define SPICE_OBS_CONCAT_IMPL(a, b) a##b
#define SPICE_OBS_CONCAT(a, b) SPICE_OBS_CONCAT_IMPL(a, b)
/// Always-on flight-recorder span over the enclosing scope.
#define SPICE_RECORD_SPAN(name) \
  ::spice::obs::RecordedSpan SPICE_OBS_CONCAT(spice_record_span_, __LINE__)(name)
/// Always-on flight-recorder point event.
#define SPICE_RECORD_INSTANT(name) \
  ::spice::obs::flight_recorder().record(::spice::obs::RecordKind::Instant, (name))
#else
#define SPICE_RECORD_SPAN(name) \
  do {                          \
  } while (0)
#define SPICE_RECORD_INSTANT(name) \
  do {                             \
  } while (0)
#endif
