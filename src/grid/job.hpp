#pragma once
// Batch jobs as the grid substrate sees them.
//
// Job is how a caller describes a job to the grid (Site::submit,
// CampaignConfig). Scheduler state lives in flyweight column arrays
// (grid/job_table.hpp); a row is materialized back into a Job only for
// opt-in finished-job records (CampaignConfig::keep_finished_jobs) and
// tests. Code that holds a Job holds a snapshot, not live scheduler
// state.

#include <cstdint>
#include <string>

namespace spice::grid {

using JobId = std::uint64_t;

enum class JobKind {
  Campaign,    ///< one of SPICE's SMD-JE production simulations
  Background,  ///< other users' load on the shared machines
};

enum class JobState { Pending, Queued, Running, Completed, Failed };

struct Job {
  JobId id = 0;
  std::string name;
  JobKind kind = JobKind::Background;
  int processors = 1;
  /// Execution time in hours on a site with speed factor 1.0; the actual
  /// runtime at a site is runtime_hours / site.speed.
  double runtime_hours = 1.0;

  /// Simulated periodic checkpoint cadence in site wall-clock hours. When
  /// > 0, a job killed by an outage keeps the work up to its last
  /// checkpoint (completed_fraction advances) and only re-runs the tail.
  double checkpoint_interval_hours = 0.0;

  // Filled in by the simulation:
  JobState state = JobState::Pending;
  std::string site;         ///< where it ran (or is queued)
  double submit_time = 0.0;
  double start_time = 0.0;
  double end_time = 0.0;
  int requeues = 0;         ///< times the job was re-dispatched after a failure
  int holds = 0;            ///< times the broker parked it in the held queue
  /// Checkpoint-credited progress in [0, 1]: the fraction of runtime_hours
  /// already banked by completed checkpoints across earlier attempts.
  double completed_fraction = 0.0;
  double consumed_cpu_hours = 0.0;  ///< procs × wall-hours burned over ALL attempts
  double wasted_cpu_hours = 0.0;    ///< consumed beyond the last credited checkpoint

  /// Reference hours still to run (shrinks as checkpoints are credited).
  [[nodiscard]] double remaining_hours() const {
    return runtime_hours * (1.0 - completed_fraction);
  }
  [[nodiscard]] double wait_hours() const { return start_time - submit_time; }
  [[nodiscard]] double cpu_hours(double site_speed) const {
    return processors * runtime_hours / site_speed;
  }
};

}  // namespace spice::grid
