#pragma once
// A grid site: an HPC machine with a batch queue, advance reservations and
// failure behaviour, driven by the shared EventQueue.
//
// Scheduling policy is FCFS with conservative EASY backfill: the head job
// gets a "shadow" start time computed from running-job completions; later
// queue entries may start immediately only if they fit in the currently
// free processors AND are guaranteed to finish before the shadow time, so
// backfilling never delays the head job. The queue is a BackfillQueue,
// whose per-block index lets the backfill scan skip whole runs of jobs
// that cannot start without visiting them.
//
// Jobs live as JobTable rows; the queue and running set hold row indices.
// Finish events are cancellable: an outage cancels the pending finish of
// every killed job outright (no stale fired-and-ignored events). A job's
// completion reaches code one way: the row completion handler, called
// with the row still in its terminal state. submit(Job) inserts a row
// for callers that hold a Job (background load, tests).

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "grid/des.hpp"
#include "grid/job.hpp"
#include "grid/job_table.hpp"
#include "obs/recorder.hpp"

namespace spice::grid {

struct SiteSpec {
  std::string name;
  std::string grid;        ///< "TeraGrid", "NGS", ...
  int processors = 128;
  double speed = 1.0;      ///< relative per-processor speed factor
  bool hidden_ip = false;  ///< compute nodes not externally addressable
  bool lightpath = false;  ///< optical lightpath (GLIF/UKLight) deployed
  /// Application successfully grid-enabled here (middleware deployed and
  /// working). HPCx never got there in the paper (§V-C.2), so the broker
  /// skips such sites.
  bool grid_enabled = true;
};

struct Reservation {
  double start = 0.0;  ///< hours
  double end = 0.0;
  int processors = 0;
  std::string holder;
};

/// A site's batch queue: job rows in FCFS order, stored in blocks of
/// kBlockRows consecutive entries. Each block keeps a dominance staircase
/// of (processors, minimum duration) over its jobs: the step with the most
/// processors ≤ the free count gives the shortest duration among the
/// block's jobs that fit, so when even that one would end after the shadow
/// time the backfill scan skips the block unvisited. Entries of blocks it
/// does visit are tested one by one, in queue order, so the start sequence
/// is exactly that of a linear scan.
///
/// Memory is O(live queue): a block holds only row ids (processors and
/// durations are read from the JobTable, constant while a row is queued),
/// drained blocks are freed, and the blocks are repacked whenever their
/// mean fill drops below half.
class BackfillQueue {
 public:
  static constexpr int kBlockRows = 64;
  /// Staircase steps kept per block. A block with more non-dominated
  /// (processors, duration) pairs merges two adjacent steps into a lower
  /// bound, which can only make the scan visit a block it could have
  /// skipped, never skip a job that could start.
  static constexpr int kSteps = 8;

  /// `speed` converts a row's remaining hours into its duration here.
  BackfillQueue(const JobTable& table, double speed);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] JobRow front() const { return blocks_.front()->rows[0]; }

  void push_back(JobRow row);
  void pop_front();
  /// Empty the queue, returning its rows in FCFS order.
  std::vector<JobRow> take_all();

  /// Visit the rows in FCFS order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const auto& b : blocks_) {
      for (int k = 0; k < b->count; ++k) visit(b->rows[k]);
    }
  }

  /// The EASY backfill scan over every row behind the head, in FCFS
  /// order. A block is skipped when none of its jobs fits `free_procs`
  /// (re-read per block) or, failing that, when its fastest fitting job
  /// would end after `shadow()` (called at most once, before any start).
  /// `try_start(row, shadow)` is asked for every row behind the head in
  /// the other blocks; rows it starts leave the queue. It must not touch
  /// the queue itself.
  template <typename Shadow, typename TryStart>
  void backfill(const int& free_procs, double now, Shadow&& shadow, TryStart&& try_start);

 private:
  struct Block {
    std::array<JobRow, kBlockRows> rows{};
    /// The staircase: processors strictly ascending, hours strictly
    /// descending.
    std::array<int, kSteps> step_procs{};
    std::array<double, kSteps> step_hours{};
    std::uint8_t count = 0;
    std::uint8_t steps = 0;
    bool stale = false;  ///< rows left since the staircase was built
  };

  [[nodiscard]] double duration(JobRow row) const {
    return table_->remaining_hours(row) / speed_;
  }
  /// Shortest duration among the block's jobs needing ≤ `free_procs`
  /// processors (a lower bound after step merges); +inf when none fits.
  [[nodiscard]] static double fastest_fit(const Block& b, int free_procs);
  void add_step(Block& b, int procs, double hours);
  void rebuild(Block& b);
  /// Move every row forward into full blocks and free the emptied tail.
  void repack();

  const JobTable* table_;
  double speed_;
  std::vector<std::unique_ptr<Block>> blocks_;  ///< FCFS order
  std::size_t size_ = 0;
};

class Site {
 public:
  /// Completion path: receives the row while it still holds the
  /// terminal state. A handler that re-queues the job must move the row
  /// out of Completed/Failed (e.g. to Backoff) to keep it alive; rows
  /// left terminal are released when the handler returns.
  using RowCompletionHandler = std::function<void(JobRow)>;
  using RecoveryHandler = std::function<void()>;

  /// Standalone site owning its own JobTable (tests, single-site demos).
  Site(SiteSpec spec, EventQueue& events);
  /// Federation member sharing the federation's JobTable.
  Site(SiteSpec spec, EventQueue& events, JobTable& table);

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  [[nodiscard]] const SiteSpec& spec() const { return spec_; }
  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] JobTable& jobs() { return *table_; }
  [[nodiscard]] SiteId site_id() const { return id_; }

  /// Called whenever a job reaches Completed or Failed.
  void set_row_completion_handler(RowCompletionHandler handler) {
    on_done_row_ = std::move(handler);
  }

  /// Called when an outage lifts and the site is usable again (fires once
  /// per outage end, suppressed while a longer overlapping outage holds).
  void set_recovery_handler(RecoveryHandler handler) { on_recovered_ = std::move(handler); }

  /// Enqueue a job (state → Queued) and try to dispatch.
  void submit(Job job);
  /// Enqueue an existing table row (broker fast path).
  void submit_row(JobRow row);

  /// Reserve processors for [start, end); queued batch jobs will not be
  /// started into the reserved capacity.
  void add_reservation(const Reservation& r);

  /// Take the whole site down until `until` (hours): running jobs fail,
  /// queued jobs fail, new submissions are rejected (job fails instantly).
  void fail_until(double until);

  [[nodiscard]] bool in_outage() const;
  [[nodiscard]] int free_processors() const { return free_procs_; }
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] std::size_t running_count() const { return running_.size(); }
  /// Busy processor-hours accumulated by finished jobs.
  [[nodiscard]] double busy_proc_hours() const { return busy_proc_hours_; }
  /// Estimated hours of queued work per processor (broker load signal).
  /// O(1): both queued and running work are tracked incrementally, so a
  /// LeastBacklog scan over a 1000-site federation costs O(sites) flat.
  [[nodiscard]] double backlog_hours() const;
  [[nodiscard]] const std::vector<Reservation>& reservations() const { return reservations_; }

  /// Deterministic digest of the scheduler-visible site state (free
  /// processors, outage window, queue order, running set, accumulators)
  /// for grid/mc's stateful-hash pruning.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// MUTATION SWITCH (grid/mc sensitivity demo only): re-introduce the
  /// pre-PR-2 stale-finish-event bug. An outage stops cancelling the
  /// finish events of the jobs it kills, and finish_row falls back to the
  /// old state-based guard — which cannot tell a stale finish from a live
  /// one once the SAME row is re-dispatched to this site. The explorer
  /// must find the interleaving where that completes a re-run attempt at
  /// zero wall-clock; seeded sweeps miss it (tie order is seq-determined,
  /// so no seed changes it).
  void set_inject_stale_finish_bug(bool on) { inject_stale_finish_bug_ = on; }

 private:
  struct Running {
    JobRow row;
    double end_time;
  };

  /// Max processors held by reservations at any instant in [t0, t1).
  [[nodiscard]] int max_reserved_overlap(double t0, double t1) const;
  /// Can a job with `procs`/`duration` start right now?
  [[nodiscard]] bool fits_now(int procs, double duration) const;
  /// Earliest time the queue head could start, given current running jobs
  /// and reservations (the EASY "shadow time").
  [[nodiscard]] double shadow_time(JobRow head) const;
  /// Per-row reference work (procs × remaining / speed) for the backlog.
  [[nodiscard]] double queued_work_of(JobRow row) const;
  void start_row(JobRow row);
  void finish_row(JobRow row);
  /// Completion accounting of a run that ended now and has left running_.
  void complete_run(JobRow row);
  void dispatch();
  void fail_row(JobRow row, const char* reason);
  /// Fan completion out to handlers, then release the row unless a
  /// handler claimed it by moving it out of its terminal state.
  void complete_row(JobRow row);
  /// True when the event queue has a virtual-clock recorder attached.
  [[nodiscard]] bool traced() const { return events_.recorder() != nullptr; }
  /// Record one virtual-clock event (ts in simulated hours) on this site's
  /// track, allocated and named after the site on first use. Requires
  /// traced().
  void trace(obs::RecordKind kind, const char* name, double ts_hours, double value,
             obs::TraceContext ctx);

  SiteSpec spec_;
  EventQueue& events_;
  std::unique_ptr<JobTable> owned_table_;  ///< standalone-constructor storage
  JobTable* table_;
  SiteId id_;
  RowCompletionHandler on_done_row_;
  RecoveryHandler on_recovered_;
  int free_procs_;
  BackfillQueue queue_;
  std::vector<Running> running_;
  /// shadow_time's (time, processors freed) candidates, reused per call.
  mutable std::vector<std::pair<double, int>> shadow_scratch_;
  std::vector<Reservation> reservations_;
  double outage_until_ = -1.0;
  bool inject_stale_finish_bug_ = false;
  double busy_proc_hours_ = 0.0;
  double queued_work_ = 0.0;  ///< Σ queued_work_of(row) over queue_
  /// Running-work accumulators for the O(1) backlog: Σ procs × end_time
  /// and Σ procs over running_. Σ procs × (end − now) falls out as
  /// running_end_work_ − now × running_procs_; both reset to exactly zero
  /// whenever running_ empties, so FP drift cannot accumulate across the
  /// campaign.
  double running_end_work_ = 0.0;
  int running_procs_ = 0;
  std::uint32_t trace_track_ = 0;  ///< 0 = not yet allocated
};

}  // namespace spice::grid
