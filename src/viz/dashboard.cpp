#include "viz/dashboard.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace spice::viz {

namespace {

constexpr int kWidth = 72;

void rule(std::ostream& os, const char* title) {
  std::string line = "+--";
  if (title != nullptr && title[0] != '\0') {
    line += ' ';
    line += title;
    line += ' ';
  }
  while (line.size() < kWidth) line += '-';
  os << line << "+\n";
}

void row(std::ostream& os, const std::string& body) {
  std::string line = "| " + body;
  if (line.size() < kWidth) line.append(kWidth - line.size(), ' ');
  os << line << "|\n";
}

std::string progress_bar(std::size_t done, std::size_t total, int cells) {
  const double frac =
      total == 0 ? 0.0 : static_cast<double>(done) / static_cast<double>(total);
  const int filled = static_cast<int>(frac * cells + 0.5);
  std::string bar = "[";
  for (int i = 0; i < cells; ++i) bar += i < filled ? '#' : '.';
  char pct[16];
  std::snprintf(pct, sizeof(pct), "] %3.0f%%", frac * 100.0);
  return bar + pct;
}

std::string fmt(const char* format, auto... args) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

}  // namespace

void render_dashboard(std::ostream& os, const DashboardFrame& frame,
                      const spice::obs::MetricsSnapshot* snapshot) {
  const std::string title =
      frame.sim_hours >= 0.0
          ? fmt("SPICE mission control  t = %8.1f h", frame.sim_hours)
          : std::string("SPICE mission control");
  rule(os, title.c_str());

  row(os, fmt("jobs %4zu/%-4zu done  %3zu failed  %3zu held  %s", frame.jobs_completed,
              frame.jobs_requested, frame.jobs_failed, frame.jobs_held,
              progress_bar(frame.jobs_completed, frame.jobs_requested, 18).c_str()));

  if (!frame.sites.empty()) {
    rule(os, "sites");
    row(os, fmt("%-14s %6s %5s %6s %9s  %s", "site", "queued", "run", "free", "backlog",
                "state"));
    for (const SiteStatus& site : frame.sites) {
      row(os, fmt("%-14s %6zu %5zu %6d %8.1fh  %s", site.name.c_str(), site.queued,
                  site.running, site.free_processors, site.backlog_hours,
                  site.in_outage ? "OUTAGE" : "up"));
    }
  }

  if (!frame.cells.empty()) {
    rule(os, "SMD-JE convergence");
    row(os, fmt("%7s %8s %4s %12s %9s %6s  %s", "k pN/A", "v A/ns", "n", "dF kcal/mol",
                "+-sigma", "ESS", "state"));
    for (const ConvergenceCell& cell : frame.cells) {
      row(os, fmt("%7.1f %8.1f %4zu %12.3f %9.3f %6.1f  %s", cell.kappa_pn,
                  cell.velocity_ns, cell.samples, cell.delta_f_kcal, cell.error_kcal,
                  cell.ess, cell.converged ? "CONVERGED" : "pulling"));
    }
  }

  if (snapshot != nullptr) {
    rule(os, "obs");
    row(os, fmt("pulls %llu  early-stops %llu  health-alerts %llu  exports %llu",
                static_cast<unsigned long long>(snapshot->counter_value("campaign.pulls")),
                static_cast<unsigned long long>(
                    snapshot->counter_value("campaign.early_stops")),
                static_cast<unsigned long long>(
                    snapshot->counter_value("obs.health.alerts")),
                static_cast<unsigned long long>(
                    snapshot->counter_value("obs.export.snapshots"))));
  }
  rule(os, nullptr);
}

}  // namespace spice::viz
