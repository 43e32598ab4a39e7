#include "grid/metrics.hpp"

#include <algorithm>

#include "common/statistics.hpp"

namespace spice::grid {

StreamingTailStats::StreamingTailStats(std::size_t exact_limit)
    : exact_limit_(std::max<std::size_t>(exact_limit, 1)) {}

void StreamingTailStats::add(double x) {
  moments_.add(x);
  if (!spilled_) {
    exact_.push_back(x);
    if (exact_.size() >= exact_limit_) {
      // Spill the buffered prefix into the P² markers in arrival order so
      // the estimate stays a pure function of the sample sequence.
      for (const double v : exact_) {
        p50_.add(v);
        p95_.add(v);
      }
      exact_.clear();
      exact_.shrink_to_fit();
      spilled_ = true;
    }
    return;
  }
  p50_.add(x);
  p95_.add(x);
}

double StreamingTailStats::median() const {
  if (moments_.count() == 0) return 0.0;
  if (!spilled_) return percentile(exact_, 50.0);
  return p50_.value();
}

double StreamingTailStats::p95() const {
  if (moments_.count() == 0) return 0.0;
  if (!spilled_) return percentile(exact_, 95.0);
  return p95_.value();
}

StreamingCampaignMetrics::StreamingCampaignMetrics(std::size_t exact_limit)
    : waits_(exact_limit) {}

void StreamingCampaignMetrics::on_completed(int processors, double submit_time,
                                            double start_time, double end_time,
                                            double consumed_cpu_hours,
                                            double wasted_cpu_hours, int requeues,
                                            SiteId site) {
  waits_.add(start_time - submit_time);
  if (site != kNoSite) {
    if (static_cast<std::size_t>(site) >= sites_.size()) sites_.resize(site + 1);
    SiteAccum& accum = sites_[site];
    accum.jobs += 1;
    accum.cpu_hours += processors * (end_time - start_time);
    accum.wait_sum += start_time - submit_time;
  }
  cpu_.consumed_cpu_hours += consumed_cpu_hours;
  cpu_.credited_cpu_hours += consumed_cpu_hours - wasted_cpu_hours;
  cpu_.wasted_cpu_hours += wasted_cpu_hours;
  if (requeues > 0) {
    cpu_.restarted_jobs += 1;
    // Credit banked by earlier attempts = consumed − wasted − final run.
    const double final_run = processors * (end_time - start_time);
    if (consumed_cpu_hours - wasted_cpu_hours - final_run > 1e-9) {
      cpu_.checkpointed_restarts += 1;
    }
  }
}

void StreamingCampaignMetrics::on_failed(double consumed_cpu_hours) {
  cpu_.consumed_cpu_hours += consumed_cpu_hours;
  cpu_.wasted_cpu_hours += consumed_cpu_hours;
}

WaitStatistics StreamingCampaignMetrics::wait_statistics() const {
  WaitStatistics stats;
  stats.jobs = waits_.count();
  if (stats.jobs == 0) return stats;
  stats.mean_hours = waits_.mean();
  stats.max_hours = waits_.max();
  stats.median_hours = waits_.median();
  stats.p95_hours = waits_.p95();
  return stats;
}

std::vector<SiteShare> StreamingCampaignMetrics::site_shares(const JobTable& table) const {
  std::vector<SiteShare> out;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const SiteAccum& accum = sites_[i];
    if (accum.jobs == 0) continue;
    SiteShare share;
    share.site = table.site_name(static_cast<SiteId>(i));
    share.jobs = accum.jobs;
    share.cpu_hours = accum.cpu_hours;
    share.mean_wait_hours = accum.wait_sum / static_cast<double>(accum.jobs);
    out.push_back(std::move(share));
  }
  std::sort(out.begin(), out.end(),
            [](const SiteShare& a, const SiteShare& b) { return a.site < b.site; });
  return out;
}

}  // namespace spice::grid
