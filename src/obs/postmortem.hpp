#pragma once
// spice::obs — post-mortem dump of the flight recorder (DESIGN.md §8.2).
//
// When a run dies or wedges, the dumper drains every flight-recorder ring
// into three files under one prefix, so the last seconds before the
// incident are inspectable without any opt-in tracing:
//
//   <prefix>_flight.json    Chrome trace-event JSON (Perfetto) from the
//                           one writer (obs::write_chrome_trace): one track
//                           per recording thread, every event stamped with
//                           its causal context
//   <prefix>_registry.prom  Prometheus exposition of the full metrics
//                           registry at dump time
//   <prefix>_causal.json    the causal span tree: campaign → grid job →
//                           ensemble replica → hub session, each node
//                           aggregating its events and span timings — the
//                           file that links a hub client session back to
//                           the engine step spans that fed it
//
// Triggers (each opt-in via arm_post_mortem, each fires the dump at most
// once per arm so an alert storm cannot thrash the disk):
//   * watchdog stall alerts (obs/health calls notify_stall_for_post_mortem)
//   * fatal signals (SIGTERM/SIGINT/SIGABRT/SIGSEGV/SIGBUS/SIGFPE); the
//     handler write is best-effort — not strictly async-signal-safe, the
//     accepted trade for a black box that needs no cooperating thread
// dump_post_mortem() can also be called explicitly at any time.

#include <cstdint>
#include <string>

namespace spice::obs {

struct PostMortemConfig {
  /// Output directory; "" resolves $SPICE_OUTPUT_DIR, falling back to ".".
  std::string output_dir;
  std::string prefix = "postmortem";
  bool dump_on_watchdog = false;
  bool dump_on_signal = false;
};

/// Install the config and whatever triggers it enables. Re-arming resets
/// the once-per-arm auto-trigger latch. Signal handlers, once installed,
/// stay installed for the process lifetime (disarm just stops them
/// dumping).
void arm_post_mortem(PostMortemConfig config);
void disarm_post_mortem();

/// Write the three dump files now. Returns the path prefix written (e.g.
/// "out/postmortem" for out/postmortem_flight.json etc.); "" when the
/// output directory is unwritable. Always allowed, armed or not.
std::string dump_post_mortem(const std::string& reason);

/// Dumps written since process start (auto-triggered + explicit).
[[nodiscard]] std::uint64_t post_mortem_dump_count();

// --- trigger plumbing (called by obs/health) ------------------------------
void notify_stall_for_post_mortem(const std::string& entry_name);

}  // namespace spice::obs
