#pragma once
// Campaign analytics: O(1)-memory accumulators updated at each completion
// event. StreamingCampaignMetrics is the broker's one record of a
// campaign's waits, per-site shares and CPU accounting, so a
// million-job campaign never retains per-job records. Means, sums and
// max are exact; quantiles are exact up to a configurable sample count,
// then switch to the P² estimator (common/statistics.hpp) with a small
// documented tolerance.

#include <cstdint>
#include <string>
#include <vector>

#include "common/statistics.hpp"
#include "grid/job_table.hpp"

namespace spice::grid {

struct WaitStatistics {
  std::size_t jobs = 0;
  double mean_hours = 0.0;
  double median_hours = 0.0;
  double p95_hours = 0.0;
  double max_hours = 0.0;
};

/// Per-site share of the campaign: job count, CPU-hours and mean wait.
struct SiteShare {
  std::string site;
  std::size_t jobs = 0;
  double cpu_hours = 0.0;
  double mean_wait_hours = 0.0;
};

/// Wasted-vs-credited CPU-hour accounting under failures and checkpoint-
/// credited restarts.
struct CpuAccounting {
  double consumed_cpu_hours = 0.0;  ///< procs × wall over every attempt of every job
  double credited_cpu_hours = 0.0;  ///< consumed hours that produced kept work
  double wasted_cpu_hours = 0.0;    ///< lost tails + all burn of failed jobs
  std::size_t restarted_jobs = 0;   ///< completed jobs that survived ≥ 1 failure
  std::size_t checkpointed_restarts = 0;  ///< restarted jobs that resumed banked work

  [[nodiscard]] double efficiency() const {
    return consumed_cpu_hours > 0.0 ? credited_cpu_hours / consumed_cpu_hours : 1.0;
  }
};

/// Streaming distribution summary: exact mean/max always (Welford), and
/// exact median/p95 while at most `exact_limit` samples were seen — the
/// raw values are buffered and fed through percentile(). Past the limit
/// the buffer spills into P² marker estimators and memory stays O(1).
class StreamingTailStats {
 public:
  explicit StreamingTailStats(std::size_t exact_limit = 1024);

  void add(double x);

  [[nodiscard]] std::size_t count() const { return moments_.count(); }
  [[nodiscard]] double mean() const { return moments_.count() > 0 ? moments_.mean() : 0.0; }
  [[nodiscard]] double max() const { return moments_.count() > 0 ? moments_.max() : 0.0; }
  [[nodiscard]] double median() const;
  [[nodiscard]] double p95() const;
  /// True while median()/p95() are exact percentiles of the sample.
  [[nodiscard]] bool exact() const { return !spilled_; }

 private:
  std::size_t exact_limit_;
  bool spilled_ = false;
  RunningStats moments_;
  std::vector<double> exact_;
  P2Quantile p50_{0.50};
  P2Quantile p95_{0.95};
};

/// Campaign metrics accumulated at completion/failure events, without
/// keeping any per-job record.
class StreamingCampaignMetrics {
 public:
  explicit StreamingCampaignMetrics(std::size_t exact_limit = 1024);

  void on_completed(int processors, double submit_time, double start_time,
                    double end_time, double consumed_cpu_hours,
                    double wasted_cpu_hours, int requeues, SiteId site);
  void on_failed(double consumed_cpu_hours);

  [[nodiscard]] WaitStatistics wait_statistics() const;
  /// Per-site shares sorted by site name; the table supplies the
  /// interned names.
  [[nodiscard]] std::vector<SiteShare> site_shares(const JobTable& table) const;
  [[nodiscard]] CpuAccounting cpu_accounting() const { return cpu_; }

 private:
  struct SiteAccum {
    std::size_t jobs = 0;
    double cpu_hours = 0.0;
    double wait_sum = 0.0;
  };

  StreamingTailStats waits_;
  std::vector<SiteAccum> sites_;  ///< indexed by SiteId
  CpuAccounting cpu_;
};

}  // namespace spice::grid
