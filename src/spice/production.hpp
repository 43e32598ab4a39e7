#pragma once
// Mapping the SMD-JE production set onto the federated grid (paper §III):
//
//   "We used the grid infrastructure in Fig. 5, to perform to completion
//    72 parallel MD simulations in under a week with each individual
//    simulation running on 128 or 256 processors (depending upon the
//    machine used). This required approximately 75,000 CPU hours."
//
// plan_production_jobs turns a sweep definition into grid::Jobs whose
// runtimes come from the all-atom cost model (a pull of 10 Å at velocity v
// is 10/v nanoseconds of MD). execute_on_federation runs the job set
// through the DES broker against contended sites — with optional fault
// injection (grid/faults.hpp) for the §V-C.4 security-breach scenario.

#include <cstdint>
#include <functional>
#include <string>

#include "grid/faults.hpp"
#include "grid/federation.hpp"
#include "obs/recorder.hpp"
#include "spice/campaign.hpp"
#include "spice/cost_model.hpp"

namespace spice::core {

struct ProductionPlan {
  std::vector<spice::grid::Job> jobs;
  double expected_cpu_hours = 0.0;  ///< at the reference processor count
  double total_simulated_ns = 0.0;
};

/// Build the job set for a sweep. If `equal_replicas > 0` every (κ, v)
/// cell gets that many jobs (6 → the paper's 72 for a 3×4 sweep);
/// otherwise the equal-compute rule (samples ∝ v) is used. Jobs alternate
/// between 128 and 256 processors ("depending upon the machine used");
/// larger allocations run proportionally shorter wall-clock.
[[nodiscard]] ProductionPlan plan_production_jobs(const SweepConfig& sweep,
                                                  const MdCostModel& cost,
                                                  std::size_t equal_replicas = 0);

/// One site's scheduler state inside a progress snapshot.
struct SiteProgress {
  std::string name;
  std::size_t queued = 0;
  std::size_t running = 0;
  int free_processors = 0;
  double backlog_hours = 0.0;
  bool in_outage = false;
};

/// Mid-campaign snapshot handed to ExecutionOptions::on_progress — the
/// raw material for a mission-control dashboard frame (viz/dashboard.hpp;
/// viz cannot link grid, so this mapping lives here).
struct CampaignProgress {
  double sim_hours = 0.0;   ///< DES virtual time of the snapshot
  bool final_frame = false; ///< true for the once-at-completion call
  std::size_t requested = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t held = 0;
  std::size_t outstanding = 0;
  std::vector<SiteProgress> sites;
};

struct ExecutionOptions {
  spice::grid::BrokerPolicy policy = spice::grid::BrokerPolicy::LeastBacklog;
  std::string single_site;               ///< for BrokerPolicy::SingleSite
  std::string restrict_to_grid;          ///< "TeraGrid"/"NGS" = national allocation only
  double background_utilization = 0.7;   ///< contention on every site
  double horizon_hours = 1000.0;         ///< background-load generation window
  std::uint64_t seed = 11;
  /// Seeded injection (off by default); faults.scheduled carries the
  /// §V-C.4 security-breach outage.
  spice::grid::FaultConfig faults;
  spice::grid::RetryPolicy retry;        ///< backoff for requeues and holds
  double checkpoint_interval_hours = 0.0;  ///< 0 = restart from scratch
  double completion_floor = 1.0;           ///< accept ≥ this fraction of replicas
  /// When set, the DES records the campaign into this recorder on its
  /// VIRTUAL timeline (one track per site + a broker track);
  /// obs::save_chrome_trace it afterwards to view the campaign as a Gantt
  /// chart in Perfetto. Caller-owned, because simulated time is a clock
  /// domain of its own; must outlive the call.
  spice::obs::FlightRecorder* recorder = nullptr;
  /// Mission control: when set (and progress_interval_hours > 0), called
  /// with a CampaignProgress every interval of SIMULATED time while the
  /// campaign runs, plus once at completion (final_frame = true). The DES
  /// fires the callback deterministically, so frames are reproducible.
  std::function<void(const CampaignProgress&)> on_progress;
  double progress_interval_hours = 0.0;
};

/// The campaign's metrics live in `campaign` (e.g. campaign.cpu.
/// restarted_jobs = jobs that survived a failure, campaign.shortfall()).
struct ProductionExecution {
  spice::grid::CampaignResult campaign;
  double makespan_hours = 0.0;
  double makespan_days = 0.0;
};

/// Run a plan on the paper's federation (build_spice_federation) under the
/// given options. Deterministic for fixed options.
[[nodiscard]] ProductionExecution execute_on_federation(const ProductionPlan& plan,
                                                        const ExecutionOptions& options);

}  // namespace spice::core
