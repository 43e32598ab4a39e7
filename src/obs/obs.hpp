#pragma once
// spice::obs — the unified observability subsystem (DESIGN.md §8).
//
// One include gives instrumented code the whole surface:
//   * obs::metrics()            process-wide counters / gauges / histograms
//   * SPICE_RECORD_SPAN(...)    wall-clock spans into the flight recorder,
//                               the one event sink (default ON)
//   * obs::FlightRecorder       per-thread event rings; a caller-owned one
//                               records the grid DES on its virtual clock
//   * obs::write_chrome_trace   the one Chrome trace-event JSON writer
//   * obs::SnapshotExporter     periodic Prometheus + JSONL file export
//   * obs::Watchdog             counter/gauge stall alerts
//   * obs::TraceContext         causal ids threaded campaign → session
//   * obs::arm_post_mortem      crash/stall dump of the flight recorder
//   * obs::set_*_enabled(...)   runtime kill switches (metrics and detail
//                               default OFF; the recorder defaults ON)
//
// Build with -DSPICE_OBS=OFF to compile the instrumentation out entirely.

#include "obs/context.hpp"
#include "obs/export.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/recorder.hpp"
