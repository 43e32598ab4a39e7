#pragma once
// Minimal leveled logging. Off (Warn) by default so benches and tests stay
// quiet; examples turn on Info to narrate the pipeline phases.
//
// Every record carries a process-uptime timestamp and a dense per-thread
// id, and the write to stderr happens under one mutex — interleaved
// SPICE_LOG lines from ThreadPool workers can never shear into each other.

#include <cstdint>
#include <sstream>
#include <string>

namespace spice {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Set the global log threshold. Thread-safe (atomic).
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Emit a log line (used by the SPICE_LOG macro; rarely called directly).
void log_message(LogLevel level, const std::string& message);

/// Seconds since the process-wide monotonic anchor (first use). Shared by
/// log prefixes and the obs flight recorder so their timestamps agree.
[[nodiscard]] double uptime_seconds();

/// Dense small id for the calling thread (0 = first thread to ask, which
/// in practice is main). Used for log prefixes, trace tracks and counter
/// shard selection.
[[nodiscard]] std::uint32_t thread_index();

}  // namespace spice

#define SPICE_LOG(level, expr)                                        \
  do {                                                                \
    if (static_cast<int>(level) >= static_cast<int>(::spice::log_level())) { \
      std::ostringstream spice_log_os;                                \
      spice_log_os << expr;                                           \
      ::spice::log_message(level, spice_log_os.str());                \
    }                                                                 \
  } while (0)

#define SPICE_DEBUG(expr) SPICE_LOG(::spice::LogLevel::Debug, expr)
#define SPICE_INFO(expr) SPICE_LOG(::spice::LogLevel::Info, expr)
#define SPICE_WARN(expr) SPICE_LOG(::spice::LogLevel::Warn, expr)
#define SPICE_ERROR(expr) SPICE_LOG(::spice::LogLevel::Error, expr)
