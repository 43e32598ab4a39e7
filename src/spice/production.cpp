#include "spice/production.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "grid/workload.hpp"

namespace spice::core {

namespace {

CampaignProgress make_progress(double sim_hours, const spice::grid::Federation& federation,
                               const spice::grid::Broker& broker, bool final_frame) {
  CampaignProgress progress;
  progress.sim_hours = sim_hours;
  progress.final_frame = final_frame;
  progress.requested = broker.requested();
  progress.completed = broker.completed();
  progress.failed = broker.failed();
  progress.held = broker.held_count();
  progress.outstanding = broker.outstanding();
  progress.sites.reserve(federation.sites().size());
  for (const auto& site : federation.sites()) {
    progress.sites.push_back({site->name(), site->queue_length(), site->running_count(),
                              site->free_processors(), site->backlog_hours(),
                              site->in_outage()});
  }
  return progress;
}

}  // namespace

ProductionPlan plan_production_jobs(const SweepConfig& sweep, const MdCostModel& cost,
                                    std::size_t equal_replicas) {
  ProductionPlan plan;
  spice::grid::JobId next_id = 1;
  for (const double kappa : sweep.kappas_pn) {
    for (const double velocity : sweep.velocities_ns) {
      const std::size_t replicas =
          equal_replicas > 0 ? equal_replicas : sweep.samples_for(velocity);
      // A 10 Å pull at v Å/ns is (distance / v) ns of MD.
      const double ns = sweep.pull_distance / velocity;
      for (std::size_t r = 0; r < replicas; ++r) {
        spice::grid::Job job;
        job.id = next_id++;
        job.kind = spice::grid::JobKind::Campaign;
        job.processors = (plan.jobs.size() % 2 == 0) ? 128 : 256;
        job.runtime_hours = wall_hours(cost, ns, job.processors);
        job.name = "smdje-k" + std::to_string(static_cast<int>(kappa)) + "-v" +
                   std::to_string(static_cast<int>(velocity)) + "-r" + std::to_string(r);
        plan.expected_cpu_hours += job.processors * job.runtime_hours;
        plan.total_simulated_ns += ns;
        plan.jobs.push_back(std::move(job));
      }
    }
  }
  SPICE_ENSURE(!plan.jobs.empty(), "empty production plan");
  return plan;
}

ProductionExecution execute_on_federation(const ProductionPlan& plan,
                                          const ExecutionOptions& options) {
  SPICE_RECORD_SPAN("campaign.execute_on_federation");
  spice::grid::EventQueue events;
  events.set_recorder(options.recorder);
  spice::grid::Federation federation(events);
  spice::grid::build_spice_federation(federation);

  // Contention: every site carries background load.
  for (const auto& site : federation.sites()) {
    spice::grid::WorkloadParams load;
    load.target_utilization = options.background_utilization;
    load.horizon_hours = options.horizon_hours;
    load.seed = options.seed;
    spice::grid::generate_background_load(*site, events, load);
  }

  // Seeded fault injection: scheduled outages (the paper's security breach
  // took out the sole usable UK node for weeks) and random failure
  // processes.
  std::optional<spice::grid::FaultInjector> injector;
  if (options.faults.enabled()) {
    injector.emplace(federation, options.faults);
    injector->arm();
  }

  spice::grid::CampaignConfig campaign;
  campaign.jobs = plan.jobs;
  campaign.policy = options.policy;
  campaign.single_site = options.single_site;
  campaign.restrict_grid = options.restrict_to_grid;
  campaign.retry = options.retry;
  campaign.checkpoint_interval_hours = options.checkpoint_interval_hours;
  campaign.completion_floor = options.completion_floor;

  spice::grid::Broker broker(federation, campaign);
  // Let queues build up for a few hours so the campaign meets realistic
  // contention rather than empty machines.
  events.run_until(24.0);
  broker.submit_all();

  // Mission-control frames on the virtual clock: a self-rescheduling DES
  // event snapshots broker + site state every interval. Pending frame
  // events past completion are harmless — the drive loop below exits on
  // broker.done() regardless of what is still queued.
  std::function<void()> progress_tick;  // outlives every scheduled reference
  if (options.on_progress && options.progress_interval_hours > 0.0) {
    progress_tick = [&events, &federation, &broker, &options, &progress_tick] {
      if (broker.done()) return;
      options.on_progress(make_progress(events.now(), federation, broker, false));
      events.after(options.progress_interval_hours, [&progress_tick] { progress_tick(); });
    };
    events.after(options.progress_interval_hours, [&progress_tick] { progress_tick(); });
  }

  while (!broker.done() && events.step()) {
  }
  if (options.on_progress) {
    options.on_progress(make_progress(events.now(), federation, broker, true));
  }

  ProductionExecution exec;
  exec.campaign = broker.result();
  exec.makespan_hours = exec.campaign.makespan_hours;
  exec.makespan_days = exec.makespan_hours / 24.0;
  return exec;
}

}  // namespace spice::core
