#pragma once
// Instrumentation hooks that let low-level common/ primitives report into
// the obs subsystem without depending on it (obs links common, so a direct
// call from here would be a cycle): obs installs the hooks, common invokes
// them through a pointer.

#include <cstddef>

namespace spice {

/// Callbacks the ThreadPool invokes around parallel_for when installed.
/// All three pointers must be valid if the struct is installed, and the
/// struct must outlive the process (obs installs a static).
struct PoolInstrumentation {
  /// Cheap per-call gate; when false the pool skips all timing.
  bool (*enabled)() = nullptr;
  /// Monotonic clock in microseconds (shared anchor with the recorder).
  double (*now_us)() = nullptr;
  /// Receives per-chunk wall times (µs) for one parallel_for call after
  /// its completion barrier; `durations_us` has `chunks` entries.
  void (*record)(std::size_t chunks, const double* durations_us) = nullptr;
};

/// Install (or clear, with nullptr) the process-wide pool hooks. The
/// pointer is published with release/acquire ordering; installing during
/// an in-flight parallel_for is safe — that call just stays untimed.
void set_pool_instrumentation(const PoolInstrumentation* hooks);
const PoolInstrumentation* pool_instrumentation();

}  // namespace spice
