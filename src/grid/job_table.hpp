#pragma once
// Flyweight storage for grid jobs: a structure-of-arrays table whose rows
// are recycled as jobs finish, so a million-job campaign costs O(active
// jobs) memory instead of O(total jobs). Site names are interned to small
// integer ids, job names live in a recycled pool, and every row is linked
// into a per-state intrusive list (insertion-ordered), giving the broker
// and sites O(1) state transitions and ordered iteration over e.g. the
// held set without scanning.
//
// Rows are the only way a job's completion reaches code: sites hand the
// finished row to their row completion handler, the federation to its
// row listeners. The `Job` struct (grid/job.hpp) is what callers insert;
// a row is materialized back into a Job only for opt-in finished-job
// records (CampaignConfig::keep_finished_jobs) and tests.

#include <cstdint>
#include <string>
#include <vector>

#include "grid/job.hpp"

namespace spice::grid {

/// Index of a job's row in the table. Rows are recycled; a JobRow is only
/// valid between insert() and release().
using JobRow = std::uint32_t;
inline constexpr JobRow kNoRow = 0xffffffffu;

/// Interned site id (index into JobTable's site-name pool); kNoSite while
/// a job is not placed anywhere.
using SiteId = std::int32_t;
inline constexpr SiteId kNoSite = -1;

/// Row lifecycle. Pending/Queued/Running/Completed/Failed mirror JobState;
/// Held (parked by the broker, no usable site) and Backoff (waiting out a
/// retry delay) refine the public Pending state so the broker can walk
/// exactly the rows it owns. Free rows sit on the recycling list.
enum class RowState : std::uint8_t {
  Pending,
  Queued,
  Running,
  Held,
  Backoff,
  Completed,
  Failed,
  Free,
};
inline constexpr std::size_t kRowStates = 8;

/// Public-facing state of a row (Held/Backoff → Pending).
[[nodiscard]] JobState to_job_state(RowState s);

class JobTable {
 public:
  /// Copy a Job into a fresh (or recycled) row. The job's site string, if
  /// set, must already be registered.
  JobRow insert(const Job& job);

  /// Return the row to the free list; the row id may be handed out again
  /// by the next insert.
  void release(JobRow row);

  /// Move the row between state lists (appends to the tail of the target
  /// list, preserving insertion order within each state).
  void set_state(JobRow row, RowState state);

  [[nodiscard]] RowState state(JobRow row) const { return state_[row]; }
  [[nodiscard]] JobState job_state(JobRow row) const { return to_job_state(state_[row]); }

  // Column accessors. Immutable-per-job columns are read-only; scheduler-
  // owned columns hand out mutable references.
  [[nodiscard]] JobId id(JobRow row) const { return id_[row]; }
  [[nodiscard]] JobKind kind(JobRow row) const { return kind_[row]; }
  [[nodiscard]] int processors(JobRow row) const { return processors_[row]; }
  [[nodiscard]] double runtime_hours(JobRow row) const { return runtime_hours_[row]; }
  [[nodiscard]] double& checkpoint_interval_hours(JobRow row) {
    return checkpoint_interval_[row];
  }
  [[nodiscard]] SiteId& site(JobRow row) { return site_[row]; }
  [[nodiscard]] double& submit_time(JobRow row) { return submit_time_[row]; }
  [[nodiscard]] double& start_time(JobRow row) { return start_time_[row]; }
  [[nodiscard]] double& end_time(JobRow row) { return end_time_[row]; }
  [[nodiscard]] std::int32_t& requeues(JobRow row) { return requeues_[row]; }
  [[nodiscard]] std::int32_t& holds(JobRow row) { return holds_[row]; }
  [[nodiscard]] double& completed_fraction(JobRow row) { return completed_fraction_[row]; }
  [[nodiscard]] double& consumed_cpu_hours(JobRow row) { return consumed_cpu_[row]; }
  [[nodiscard]] double& wasted_cpu_hours(JobRow row) { return wasted_cpu_[row]; }
  /// Last failure reason (static string; nullptr when none).
  [[nodiscard]] const char*& fail_reason(JobRow row) { return fail_reason_[row]; }
  /// State-dependent event token: the site's finish event while Running,
  /// the broker's backoff timer while Held/Backoff (states are disjoint).
  [[nodiscard]] std::uint64_t& event_token(JobRow row) { return event_token_[row]; }
  /// Running-state back-pointer into the site's running vector.
  [[nodiscard]] std::uint32_t& running_index(JobRow row) { return running_index_[row]; }

  [[nodiscard]] double remaining_hours(JobRow row) const {
    return runtime_hours_[row] * (1.0 - completed_fraction_[row]);
  }

  // Per-state intrusive lists (insertion order head→tail).
  [[nodiscard]] JobRow head(RowState s) const { return head_[static_cast<std::size_t>(s)]; }
  [[nodiscard]] JobRow next(JobRow row) const { return next_[row]; }
  [[nodiscard]] std::size_t count(RowState s) const {
    return count_[static_cast<std::size_t>(s)];
  }

  /// Intern a site name; idempotent per name.
  SiteId register_site(const std::string& name);
  [[nodiscard]] SiteId find_site(const std::string& name) const;
  [[nodiscard]] const std::string& site_name(SiteId id) const { return site_names_[id]; }

  /// Job name for display/traces ("job<id>" for unnamed rows).
  [[nodiscard]] std::string display_name(JobRow row) const;

  /// Materialize a row as a Job snapshot. The name carries the last
  /// failure reason as a " [reason]" suffix when one is recorded.
  [[nodiscard]] Job materialize(JobRow row) const;

  /// Deterministic digest of the live rows for grid/mc's stateful-hash
  /// pruning: per-row field digests combined order-independently (row
  /// indices recycle in interleaving-dependent order and must not leak
  /// into the hash), plus the head→tail order of every per-state list
  /// (queue/held order IS behaviorally significant). Event-token values
  /// are reduced to a set/unset bit for the same reason as row indices
  /// (slot numbers recycle); times and CPU accounting hash bit-exactly.
  [[nodiscard]] std::uint64_t fingerprint() const;

  [[nodiscard]] std::size_t live_rows() const { return live_; }
  /// High-water mark of simultaneously live rows — the table's O(active)
  /// memory evidence for bench/grid_scale.
  [[nodiscard]] std::size_t peak_rows() const { return peak_; }
  [[nodiscard]] std::size_t capacity_rows() const { return id_.size(); }
  /// Approximate bytes per row across all column arrays.
  [[nodiscard]] static std::size_t bytes_per_row();

 private:
  void unlink(JobRow row);
  void link_back(JobRow row, RowState state);
  JobRow alloc_row();

  std::vector<JobId> id_;
  std::vector<std::int32_t> name_id_;  ///< index into names_; -1 = unnamed
  std::vector<JobKind> kind_;
  std::vector<RowState> state_;
  std::vector<std::int32_t> processors_;
  std::vector<double> runtime_hours_;
  std::vector<double> checkpoint_interval_;
  std::vector<SiteId> site_;
  std::vector<double> submit_time_;
  std::vector<double> start_time_;
  std::vector<double> end_time_;
  std::vector<std::int32_t> requeues_;
  std::vector<std::int32_t> holds_;
  std::vector<double> completed_fraction_;
  std::vector<double> consumed_cpu_;
  std::vector<double> wasted_cpu_;
  std::vector<const char*> fail_reason_;
  std::vector<std::uint64_t> event_token_;
  std::vector<std::uint32_t> running_index_;
  std::vector<JobRow> prev_;
  std::vector<JobRow> next_;

  JobRow head_[kRowStates] = {kNoRow, kNoRow, kNoRow, kNoRow,
                              kNoRow, kNoRow, kNoRow, kNoRow};
  JobRow tail_[kRowStates] = {kNoRow, kNoRow, kNoRow, kNoRow,
                              kNoRow, kNoRow, kNoRow, kNoRow};
  std::size_t count_[kRowStates] = {0, 0, 0, 0, 0, 0, 0, 0};

  std::vector<std::string> names_;        ///< recycled job-name pool
  std::vector<std::int32_t> free_names_;
  std::vector<std::string> site_names_;

  std::size_t live_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace spice::grid
