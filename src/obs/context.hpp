#pragma once
// spice::obs — 64-bit causal trace context (DESIGN.md §8.2).
//
// One id links everything a unit of work touched across layers: the
// campaign that requested it, the grid job (run token) that carried it,
// the ensemble replica that computed it, and the hub client session that
// watched it. The id is a plain 64-bit word so stamping it into a
// flight-recorder event costs one store:
//
//   bits 56..63  campaign id   (8 bits,  0 = unset)
//   bits 32..55  grid job id   (24 bits, 0 = unset)
//   bits 20..31  replica index (12 bits, stored +1 so 0 = unset)
//   bits  4..19  hub session   (16 bits, stored +1 so 0 = unset)
//   bits  0..3   reserved (unused)
//
// The current context is thread-local; layers narrow it as work descends
// (campaign → job → replica → session) with RAII ContextScope so an
// exception or early return can never leak a stale id onto the thread.
// Everything here is a handful of bit ops — safe on any hot path, and the
// context never influences simulation state (determinism contract §8).

#include <cstdint>
#include <string>

namespace spice::obs {

struct TraceContext {
  std::uint64_t bits = 0;

  [[nodiscard]] static TraceContext campaign(std::uint64_t id) {
    return TraceContext{(id & 0xFFu) << 56};
  }
  [[nodiscard]] TraceContext with_job(std::uint64_t job_id) const {
    return TraceContext{(bits & ~(0xFFFFFFull << 32)) | ((job_id & 0xFFFFFFull) << 32)};
  }
  [[nodiscard]] TraceContext with_replica(std::uint64_t replica) const {
    return TraceContext{(bits & ~(0xFFFull << 20)) | (((replica + 1) & 0xFFFull) << 20)};
  }
  [[nodiscard]] TraceContext with_session(std::uint64_t session) const {
    return TraceContext{(bits & ~(0xFFFFull << 4)) | (((session + 1) & 0xFFFFull) << 4)};
  }

  [[nodiscard]] std::uint64_t campaign_id() const { return bits >> 56; }
  [[nodiscard]] std::uint64_t job_id() const { return (bits >> 32) & 0xFFFFFFull; }
  /// True when a replica/session component is present (they store +1).
  [[nodiscard]] bool has_replica() const { return ((bits >> 20) & 0xFFFull) != 0; }
  [[nodiscard]] bool has_session() const { return ((bits >> 4) & 0xFFFFull) != 0; }
  [[nodiscard]] std::uint64_t replica_id() const { return ((bits >> 20) & 0xFFFull) - 1; }
  [[nodiscard]] std::uint64_t session_id() const { return ((bits >> 4) & 0xFFFFull) - 1; }

  [[nodiscard]] bool empty() const { return bits == 0; }
  friend bool operator==(TraceContext a, TraceContext b) { return a.bits == b.bits; }

  /// Compact human-readable form, e.g. "c1.j42.r3.s7" (unset parts
  /// omitted; empty context renders as "-"). Stable: dumps and tests key
  /// the causal tree on this string.
  [[nodiscard]] std::string to_string() const {
    if (empty()) return "-";
    std::string out;
    if (campaign_id() != 0) out += "c" + std::to_string(campaign_id());
    if (job_id() != 0) {
      if (!out.empty()) out += '.';
      out += "j" + std::to_string(job_id());
    }
    if (has_replica()) {
      if (!out.empty()) out += '.';
      out += "r" + std::to_string(replica_id());
    }
    if (has_session()) {
      if (!out.empty()) out += '.';
      out += "s" + std::to_string(session_id());
    }
    return out.empty() ? "-" : out;
  }
};

namespace detail {
inline thread_local TraceContext g_trace_context{};
}  // namespace detail

/// The calling thread's current causal context (empty by default).
[[nodiscard]] inline TraceContext current_context() { return detail::g_trace_context; }
inline void set_current_context(TraceContext context) { detail::g_trace_context = context; }

/// RAII context switch: installs `context` for the enclosing scope and
/// restores the previous one on exit (exception-safe).
class ContextScope {
 public:
  explicit ContextScope(TraceContext context) : previous_(detail::g_trace_context) {
    detail::g_trace_context = context;
  }
  ~ContextScope() { detail::g_trace_context = previous_; }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext previous_;
};

}  // namespace spice::obs
