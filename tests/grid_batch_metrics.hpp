#pragma once
// Batch oracles for the grid's streaming campaign metrics: the same
// wait statistics, per-site shares and CPU accounting, recomputed from
// materialized finished-job records (CampaignConfig::keep_finished_jobs).
// Tests compare them against StreamingCampaignMetrics; no program code
// reduces over Job records.

#include <map>
#include <string>
#include <vector>

#include "common/statistics.hpp"
#include "grid/job.hpp"
#include "grid/metrics.hpp"

namespace spice::grid::batch {

/// Queue-wait statistics over completed jobs (Failed jobs are skipped).
inline WaitStatistics wait_statistics(const std::vector<Job>& jobs) {
  std::vector<double> waits;
  for (const auto& j : jobs) {
    if (j.state == JobState::Completed) waits.push_back(j.wait_hours());
  }
  WaitStatistics stats;
  stats.jobs = waits.size();
  if (waits.empty()) return stats;
  RunningStats rs;
  for (const double w : waits) rs.add(w);
  stats.mean_hours = rs.mean();
  stats.max_hours = rs.max();
  stats.median_hours = percentile(waits, 50.0);
  stats.p95_hours = percentile(waits, 95.0);
  return stats;
}

/// Per-site shares of the completed jobs, sorted by site name.
inline std::vector<SiteShare> site_shares(const std::vector<Job>& jobs) {
  std::map<std::string, SiteShare> by_site;
  for (const auto& j : jobs) {
    if (j.state != JobState::Completed) continue;
    SiteShare& share = by_site[j.site];
    share.site = j.site;
    share.jobs += 1;
    share.cpu_hours += j.processors * (j.end_time - j.start_time);
    share.mean_wait_hours += j.wait_hours();  // finalized below
  }
  std::vector<SiteShare> out;
  out.reserve(by_site.size());
  for (auto& [site, share] : by_site) {
    share.mean_wait_hours /= static_cast<double>(share.jobs);
    out.push_back(share);
  }
  return out;
}

/// Credited-vs-wasted CPU-hours over every record, completed or failed.
inline CpuAccounting cpu_accounting(const std::vector<Job>& jobs) {
  CpuAccounting acc;
  for (const auto& j : jobs) {
    acc.consumed_cpu_hours += j.consumed_cpu_hours;
    if (j.state == JobState::Completed) {
      acc.credited_cpu_hours += j.consumed_cpu_hours - j.wasted_cpu_hours;
      acc.wasted_cpu_hours += j.wasted_cpu_hours;
      if (j.requeues > 0) {
        acc.restarted_jobs += 1;
        // Credit banked by earlier attempts = consumed − wasted − final run.
        const double final_run = j.processors * (j.end_time - j.start_time);
        if (j.consumed_cpu_hours - j.wasted_cpu_hours - final_run > 1e-9) {
          acc.checkpointed_restarts += 1;
        }
      }
    } else {
      // A job that never completed delivered nothing.
      acc.wasted_cpu_hours += j.consumed_cpu_hours;
    }
  }
  return acc;
}

}  // namespace spice::grid::batch
