// Fault-tolerant campaign execution under a seeded fault load (§V-C.4
// operational reality): the production set runs through a federation where
// every site goes down simultaneously mid-campaign and sites keep failing
// at random afterwards. Measures what checkpoint-credited restarts buy
// over restart-from-scratch, and that the whole faulted campaign replays
// bit-identically for a fixed fault seed.

#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <string_view>

#include "claims.hpp"
#include "grid/faults.hpp"
#include "grid/metrics.hpp"
#include "spice/cost_model.hpp"
#include "spice/production.hpp"
#include "viz/series_writer.hpp"

using namespace spice;
using namespace spice::claims;
using namespace spice::core;

namespace {

ExecutionOptions faulted_options(double checkpoint_interval) {
  ExecutionOptions options;
  options.checkpoint_interval_hours = checkpoint_interval;
  options.faults.seed = 2005;
  // Random failure/repair process on every site…
  options.faults.site_mtbf_hours = 150.0;
  options.faults.mean_outage_hours = 5.0;
  options.faults.horizon_hours = 500.0;
  // …plus a scheduled window in which the WHOLE federation is down
  // (submission happens at t = 24 h after the contention warm-up, so the
  // window at 30 h lands mid-campaign).
  for (const char* site :
       {"NCSA", "SDSC", "PSC", "Manchester", "Oxford", "Leeds", "RAL", "HPCx"}) {
    options.faults.scheduled.push_back({site, 30.0, 18.0});
  }
  options.retry.max_holds = 200;
  return options;
}

}  // namespace

void spice::claims::grid_faults(Claim& claim) {
  const SweepConfig sweep;
  const MdCostModel cost;
  const ProductionPlan plan = plan_production_jobs(sweep, cost, /*equal_replicas=*/6);
  std::printf("\nplan: %zu jobs, %.0f expected CPU-hours; fault seed %" PRIu64 " with an "
              "18 h all-sites outage window + random site failures\n",
              plan.jobs.size(), plan.expected_cpu_hours, faulted_options(0.0).faults.seed);

  const ProductionExecution full = execute_on_federation(plan, faulted_options(0.0));
  const ProductionExecution ckpt = execute_on_federation(plan, faulted_options(1.0));
  const ProductionExecution rerun = execute_on_federation(plan, faulted_options(1.0));

  viz::Table table({"mode", "makespan_days", "completed", "consumed_cpuh",
                    "credited_cpuh", "wasted_cpuh", "held", "ckpt_restarts"});
  auto add = [&table](double mode, const ProductionExecution& e) {
    table.add_row({mode, e.makespan_days, static_cast<double>(e.campaign.completed),
                   e.campaign.total_cpu_hours, e.campaign.credited_cpu_hours,
                   e.campaign.wasted_cpu_hours,
                   static_cast<double>(e.campaign.held_dispatches),
                   static_cast<double>(e.campaign.checkpoint_restarts)});
  };
  std::printf("\nmode 1 = restart-from-scratch, mode 2 = checkpoint-credited (1 h cadence)\n\n");
  add(1, full);
  add(2, ckpt);
  table.write_pretty(std::cout, 2);

  claim.set("fault_seed", faulted_options(0.0).faults.seed);
  claim.set("jobs", plan.jobs.size());
  claim.set("checkpoint_credited.checkpoint_interval_hours", 1.0);
  auto set_mode = [&claim](std::string_view mode, const ProductionExecution& e) {
    claim.set_group(mode, {{"makespan_hours", e.makespan_hours},
                           {"completed", e.campaign.completed},
                           {"consumed_cpu_hours", e.campaign.total_cpu_hours},
                           {"credited_cpu_hours", e.campaign.credited_cpu_hours},
                           {"wasted_cpu_hours", e.campaign.wasted_cpu_hours},
                           {"held_dispatches", e.campaign.held_dispatches},
                           {"checkpoint_restarts", e.campaign.checkpoint_restarts}});
  };
  set_mode("restart_from_scratch", full);
  set_mode("checkpoint_credited", ckpt);

  claim.check(full.campaign.completed == plan.jobs.size() &&
                  ckpt.campaign.completed == plan.jobs.size() && full.campaign.failed == 0 &&
                  ckpt.campaign.failed == 0,
              "every job eventually completes despite the all-sites window "
              "(no job lost to 'no usable site')");
  claim.check(ckpt.campaign.wasted_cpu_hours < full.campaign.wasted_cpu_hours,
              fmt("checkpoint credit wastes strictly fewer CPU-hours (%.0f vs %.0f)",
                  ckpt.campaign.wasted_cpu_hours, full.campaign.wasted_cpu_hours));
  claim.check(ckpt.campaign.total_cpu_hours < full.campaign.total_cpu_hours,
              fmt("checkpoint credit burns strictly fewer total CPU-hours (%.0f vs %.0f)",
                  ckpt.campaign.total_cpu_hours, full.campaign.total_cpu_hours));
  claim.check(ckpt.makespan_hours == rerun.makespan_hours &&
                  ckpt.campaign.total_cpu_hours == rerun.campaign.total_cpu_hours &&
                  ckpt.campaign.wasted_cpu_hours == rerun.campaign.wasted_cpu_hours,
              "fixed fault seed replays the campaign bit-identically");
  claim.check(ckpt.campaign.held_dispatches > 0 && ckpt.campaign.checkpoint_restarts > 0,
              fmt("the all-sites window exercised held-queue parking AND "
                  "checkpoint-credited restarts (%zu held, %zu resumed)",
                  ckpt.campaign.held_dispatches, ckpt.campaign.checkpoint_restarts));
}
