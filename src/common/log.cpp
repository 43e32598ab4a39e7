#include "common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace spice {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::Warn)};
std::mutex g_log_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug:
      return "DEBUG";
    case LogLevel::Info:
      return "INFO ";
    case LogLevel::Warn:
      return "WARN ";
    case LogLevel::Error:
      return "ERROR";
    case LogLevel::Off:
      return "OFF  ";
  }
  return "?????";
}

std::chrono::steady_clock::time_point process_anchor() {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return anchor;
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(static_cast<int>(level)); }

LogLevel log_level() { return static_cast<LogLevel>(g_level.load()); }

double uptime_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - process_anchor())
      .count();
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void log_message(LogLevel level, const std::string& message) {
  const double uptime = uptime_seconds();
  const std::uint32_t thread = thread_index();
  // One serialized, atomic-at-the-line-level write: worker threads
  // logging concurrently produce whole lines, never interleaved shards.
  std::lock_guard lock(g_log_mutex);
  std::fprintf(stderr, "[spice %s +%.3fs T%02u] %s\n", level_name(level), uptime, thread,
               message.c_str());
}

}  // namespace spice
