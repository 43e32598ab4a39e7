#pragma once
// Federation of grids and the campaign broker.
//
// A Federation owns Sites (each belonging to a named grid — "TeraGrid",
// "NGS"), the shared flyweight JobTable, and fans every site's completed
// rows out to row listeners. The Broker dispatches a campaign of jobs
// across the federation (the paper's 72-simulation production set),
// re-queueing jobs that fail (e.g. in a site outage) onto other sites —
// exactly the redundancy argument of §V-C.4. Broker::choose_site is the
// one placement scan.
//
// Scale model: campaign state lives in JobTable rows; held jobs are the
// table's Held list (no broker-side vector), backoff timers are
// cancellable DES events (a site recovery releases a held job AND removes
// its timer), and the campaign metrics are the broker's
// StreamingCampaignMetrics, O(1) accumulators fed at each completion. A
// campaign keeps no per-job records unless
// CampaignConfig::keep_finished_jobs asks for them (default off).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "grid/des.hpp"
#include "grid/job_table.hpp"
#include "grid/metrics.hpp"
#include "grid/site.hpp"

namespace spice::grid {

class Federation {
 public:
  using RowListener = std::function<void(JobRow)>;
  using RecoveryListener = std::function<void(Site&)>;
  using ListenerId = std::size_t;

  explicit Federation(EventQueue& events) : events_(events) {}

  Site& add_site(const SiteSpec& spec);

  [[nodiscard]] Site* find(const std::string& name);
  [[nodiscard]] const std::vector<std::unique_ptr<Site>>& sites() const { return sites_; }
  [[nodiscard]] std::vector<Site*> sites_in_grid(const std::string& grid);
  [[nodiscard]] EventQueue& events() { return events_; }
  [[nodiscard]] JobTable& jobs() { return table_; }
  [[nodiscard]] const JobTable& jobs() const { return table_; }
  [[nodiscard]] int total_processors() const;

  /// Completion listener: receives the row (state still terminal) of
  /// every finished job from every site, campaign and background alike.
  /// Remove before the listener's captures dangle — e.g. a Broker
  /// deregisters on destruction.
  ListenerId add_row_listener(RowListener listener);
  void remove_row_listener(ListenerId id);

  /// Register an outage-recovery listener (fires when any site's outage
  /// lifts — the broker uses this to re-dispatch held jobs).
  ListenerId add_recovery_listener(RecoveryListener listener);
  void remove_recovery_listener(ListenerId id);

 private:
  EventQueue& events_;
  JobTable table_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::vector<std::pair<ListenerId, RowListener>> row_listeners_;
  std::vector<std::pair<ListenerId, RecoveryListener>> recovery_listeners_;
  ListenerId next_listener_id_ = 0;
};

enum class BrokerPolicy {
  LeastBacklog,  ///< send each job to the usable site with the least queued work
  RoundRobin,    ///< cycle over usable sites
  SingleSite,    ///< everything to one named site (the no-grid baseline)
};

/// Re-dispatch timing after failures and held-queue parks: exponential
/// backoff with deterministic per-(job, attempt) jitter, so reruns with the
/// same seed are bit-identical while retries never synchronize into waves.
struct RetryPolicy {
  double base_backoff_hours = 0.1;  ///< first retry delay
  double backoff_factor = 2.0;      ///< growth per attempt
  double max_backoff_hours = 6.0;   ///< delay cap
  double jitter_fraction = 0.25;    ///< delay scaled by [1−f, 1+f)
  int max_holds = 100;              ///< held-queue budget before giving up
  std::uint64_t seed = 0x53504943;  ///< jitter stream seed

  /// Deterministic delay for a job's attempt-th retry (attempt ≥ 1).
  [[nodiscard]] double delay_hours(JobId job, int attempt) const;

  /// Oracle-aware variant: with an oracle installed and jitter enabled,
  /// the continuous jitter draw becomes an enumerable choice among
  /// `oracle_jitter_levels` evenly spaced quantiles of the jitter range,
  /// so grid/mc can branch over every retry timing class. Falls back to
  /// the seeded draw when `oracle` is null; with jitter_fraction == 0
  /// there is no nondeterminism and no choice point is consumed.
  [[nodiscard]] double delay_hours(JobId job, int attempt, ChoiceOracle* oracle) const;

  /// Jitter quantile count enumerated per retry under an oracle (≥ 1).
  int oracle_jitter_levels = 2;
};

struct CampaignConfig {
  std::vector<Job> jobs;
  /// Alternative to `jobs` for very large campaigns: when `jobs` is empty,
  /// the broker asks `job_factory(i)` for each of `job_count` jobs at
  /// submit time, so a million-job campaign never exists as a vector.
  std::function<Job(std::size_t)> job_factory;
  std::size_t job_count = 0;
  BrokerPolicy policy = BrokerPolicy::LeastBacklog;
  std::string single_site;    ///< used by BrokerPolicy::SingleSite
  std::string restrict_grid;  ///< non-empty: only sites of this grid
                              ///< (models a US-only or UK-only allocation)
  int max_requeues = 5;       ///< per-job failure budget before giving up
  RetryPolicy retry;          ///< backoff for requeues and held jobs
  /// Propagated onto every campaign job that does not set its own cadence;
  /// 0 disables checkpoint-credited restarts.
  double checkpoint_interval_hours = 0.0;
  /// Graceful degradation: the campaign is acceptable when at least this
  /// fraction of the requested replicas completed (1.0 = all required).
  double completion_floor = 1.0;
  /// Retain a materialized Job record per finished job (CampaignResult::
  /// finished_jobs), for tests that inspect individual jobs. The campaign
  /// metrics never need them.
  bool keep_finished_jobs = false;
  /// grid/mc seam (not owned, may be null): routes the broker's
  /// nondeterministic choices — backoff jitter and the RoundRobin start
  /// offset — through the explorer so every branch is enumerable. Must
  /// outlive the broker when set.
  ChoiceOracle* oracle = nullptr;
};

struct CampaignResult {
  double submit_time = 0.0;
  double makespan_hours = 0.0;   ///< last completion OR permanent failure − submit
  double total_cpu_hours = 0.0;  ///< Σ procs × wall over ALL attempts of completed jobs
  double credited_cpu_hours = 0.0;  ///< cpu.credited_cpu_hours
  double wasted_cpu_hours = 0.0;    ///< cpu.wasted_cpu_hours
  std::size_t completed = 0;
  std::size_t failed = 0;  ///< jobs that exhausted their requeue/hold budget
  std::size_t requested = 0;         ///< campaign size as submitted
  std::size_t held_dispatches = 0;   ///< times a job entered the held queue
  std::size_t checkpoint_restarts = 0;  ///< dispatches resuming banked progress
  /// Per-job records; empty unless CampaignConfig::keep_finished_jobs.
  std::vector<Job> finished_jobs;

  // The campaign metrics: snapshots of the broker's streaming
  // accumulators, filled whether or not records are kept.
  WaitStatistics wait_stats;
  std::vector<SiteShare> site_shares;  ///< sorted by site name; the per-site job counts
  CpuAccounting cpu;

  double completion_floor = 1.0;  ///< copied from the campaign config

  [[nodiscard]] std::size_t shortfall() const { return requested - completed; }
  [[nodiscard]] bool degraded() const { return shortfall() > 0; }
  /// True when enough replicas completed for the campaign to count as a
  /// (possibly degraded) success.
  [[nodiscard]] bool meets_floor() const {
    return static_cast<double>(completed) + 1e-9 >=
           completion_floor * static_cast<double>(requested);
  }
};

/// Dispatches one campaign over a federation. Submit, then run the event
/// queue; `done()` flips when every job completed or gave up. Safe to
/// destroy (it deregisters its listeners) and follow with another Broker
/// on the same federation — rows recycle between campaigns.
class Broker {
 public:
  Broker(Federation& federation, CampaignConfig config);
  ~Broker();
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Submit all campaign jobs at the current simulation time.
  void submit_all();

  [[nodiscard]] bool done() const { return outstanding_ == 0 && submitted_; }
  /// Final campaign metrics; requires done().
  [[nodiscard]] CampaignResult result() const;

  // Mid-run progress (valid any time after submit_all; mission-control
  // progress snapshots read these while the DES is still running).
  [[nodiscard]] std::size_t requested() const { return result_.requested; }
  [[nodiscard]] std::size_t completed() const { return result_.completed; }
  [[nodiscard]] std::size_t failed() const { return result_.failed; }
  [[nodiscard]] std::size_t outstanding() const { return outstanding_; }
  [[nodiscard]] std::size_t held_count() const {
    return federation_.jobs().count(RowState::Held);
  }
  /// Next RoundRobin rotation position (grid/mc fingerprints this: two
  /// states differing only in rotation phase schedule differently).
  [[nodiscard]] std::size_t round_robin_cursor() const { return round_robin_next_; }

 private:
  [[nodiscard]] Site* choose_site(JobRow row, SiteId exclude);
  /// Could any site EVER run this job (ignoring outages/exclusions)?
  [[nodiscard]] bool feasible_somewhere(JobRow row) const;
  void dispatch(JobRow row, SiteId exclude);
  /// Park a job that currently has no usable site; it is re-dispatched on
  /// the next site recovery or its own backoff timer, whichever first
  /// (the loser is cancelled, not fired-and-ignored).
  void hold(JobRow row);
  void retry_held(JobRow row);  ///< backoff-timer path out of the held list
  void release_held();          ///< recovery path: re-dispatch everything held
  void end_held_span(JobRow row);  ///< close the held async span of a park
  /// `release_row` distinguishes loose rows (dispatch paths — release
  /// here) from rows inside a site's completion fan-out (the site
  /// releases once every handler has run).
  void fail_permanently(JobRow row, bool release_row);
  void on_row_done(JobRow row);
  /// True when the event queue has a virtual-clock recorder attached.
  [[nodiscard]] bool traced() const { return federation_.events().recorder() != nullptr; }
  /// Record one virtual-clock event (now(), simulated) about `row` on the
  /// broker's track, allocated on first use. Requires traced().
  void trace(obs::RecordKind kind, const char* name, JobRow row, double value);

  Federation& federation_;
  CampaignConfig config_;
  CampaignResult result_;
  StreamingCampaignMetrics stream_;
  std::vector<Site*> usable_;       ///< choose_site scratch (no per-dispatch alloc)
  std::vector<JobRow> held_batch_;  ///< release_held scratch
  std::size_t outstanding_ = 0;
  std::size_t round_robin_next_ = 0;
  bool submitted_ = false;
  std::uint32_t trace_track_ = 0;  ///< 0 = not yet allocated
  Federation::ListenerId row_listener_ = 0;
  Federation::ListenerId recovery_listener_ = 0;
};

/// The federated US–UK grid of the paper's Fig. 5: TeraGrid nodes (NCSA,
/// SDSC, PSC) and the UK NGS high-end nodes, with realistic 2005-era
/// sizes. HPCx is included with hidden-IP and no lightpath so scenario
/// code can demonstrate why it was unusable (§V-C.2).
void build_spice_federation(Federation& federation);

/// A deterministic n-site federation for scale studies (bench/grid_scale):
/// site sizes, speeds and grid membership drawn from Rng::stream(seed, …),
/// independent of call order.
void build_synthetic_federation(Federation& federation, std::size_t n_sites,
                                std::uint64_t seed);

}  // namespace spice::grid
