#pragma once
// ASCII mission-control dashboard (DESIGN.md §8).
//
// Renders one "frame" of campaign state — per-site queue/run/outage
// status, overall job progress, and the live ΔF ± σ convergence grid per
// (κ, v) cell — as plain text an operator can watch scroll by (or a demo
// can snapshot). The frame is a plain value type deliberately free of
// grid/* types: viz sits below grid in the layering, so the production
// layer (spice::core) maps its CampaignProgress into a DashboardFrame and
// examples/federated_campaign prints one frame per progress callback.
//
// When a MetricsSnapshot is supplied, a footer line reports the key obs
// totals (pulls, early stops, health alerts, exporter snapshots) so the
// dashboard doubles as a quick read on the telemetry subsystem itself.

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace spice::viz {

/// One grid site's scheduler state at frame time.
struct SiteStatus {
  std::string name;
  std::size_t queued = 0;
  std::size_t running = 0;
  int free_processors = 0;
  double backlog_hours = 0.0;
  bool in_outage = false;
};

/// Live JE convergence of one (κ, v) cell of the Fig. 4 study.
struct ConvergenceCell {
  double kappa_pn = 0.0;
  double velocity_ns = 0.0;
  std::size_t samples = 0;
  double delta_f_kcal = 0.0;
  double error_kcal = 0.0;  ///< jackknife/bootstrap error bar on ΔF
  double ess = 0.0;         ///< Kish effective sample size
  bool converged = false;
};

struct DashboardFrame {
  /// DES virtual time of the frame, simulated hours (< 0: not shown).
  double sim_hours = -1.0;
  std::size_t jobs_requested = 0;
  std::size_t jobs_completed = 0;
  std::size_t jobs_failed = 0;
  std::size_t jobs_held = 0;
  std::vector<SiteStatus> sites;
  std::vector<ConvergenceCell> cells;
};

/// Render one frame. `snapshot` (optional) adds the obs footer.
void render_dashboard(std::ostream& os, const DashboardFrame& frame,
                      const spice::obs::MetricsSnapshot* snapshot = nullptr);

}  // namespace spice::viz
