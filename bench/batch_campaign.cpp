// E6/E10 — §III batch phase: "72 parallel MD simulations in under a week
// ... approximately 75,000 CPU hours: it is unlikely that such
// computations would be possible in under a week without a grid
// infrastructure in place."
//
// Scenarios:
//   1. the federated US-UK grid (LeastBacklog broker) — the paper's run;
//   2. each single site alone — the counterfactual;
//   3. the §V-C.4 security-breach outage (weeks-long UK node loss) with
//      broker requeueing — the redundancy argument.

#include <cstdio>
#include <iostream>

#include "claims.hpp"
#include "spice/cost_model.hpp"
#include "spice/production.hpp"
#include "viz/series_writer.hpp"

using namespace spice;
using namespace spice::claims;
using namespace spice::core;

void spice::claims::batch_campaign(Claim& claim) {
  const SweepConfig sweep;  // 3 kappa x 4 v
  const MdCostModel cost;
  const ProductionPlan plan = plan_production_jobs(sweep, cost, /*equal_replicas=*/6);
  std::printf("\nplan: %zu jobs (paper: 72), %.0f expected CPU-hours (paper: ~75,000), "
              "%.1f ns of MD\n",
              plan.jobs.size(), plan.expected_cpu_hours, plan.total_simulated_ns);

  viz::Table table({"scenario", "makespan_days", "completed", "failed", "cpu_hours",
                    "mean_wait_h", "sites_used"});
  auto add = [&table](double scenario, const ProductionExecution& e) {
    table.add_row({scenario, e.makespan_days, static_cast<double>(e.campaign.completed),
                   static_cast<double>(e.campaign.failed), e.campaign.total_cpu_hours,
                   e.campaign.wait_stats.mean_hours,
                   static_cast<double>(e.campaign.site_shares.size())});
  };

  // Scenario 1: the federated US-UK grid (the paper's run).
  ExecutionOptions federated;
  const ProductionExecution fed = execute_on_federation(plan, federated);
  add(1, fed);
  std::printf("\nscenario 1 = federated US-UK grid;  per-site placement:");
  for (const auto& share : fed.campaign.site_shares) {
    std::printf("  %s:%zu", share.site.c_str(), share.jobs);
  }
  std::printf("\n");

  // Scenario 2: UK NGS allocation only (the "just the UK grid" baseline of
  // the NSF/EPSRC call — HPCx was never usable, §V-C.2).
  ExecutionOptions uk_only = federated;
  uk_only.restrict_to_grid = "NGS";
  const ProductionExecution uk = execute_on_federation(plan, uk_only);
  std::printf("scenario 2 = UK NGS only\n");
  add(2, uk);

  // Scenario 3: US TeraGrid allocation only.
  ExecutionOptions us_only = federated;
  us_only.restrict_to_grid = "TeraGrid";
  const ProductionExecution us = execute_on_federation(plan, us_only);
  std::printf("scenario 3 = US TeraGrid only\n");
  add(3, us);

  // Scenarios 4-5: single sites.
  double worst_single = 0.0;
  int idx = 4;
  for (const char* site : {"SDSC", "Manchester"}) {
    ExecutionOptions single;
    single.policy = grid::BrokerPolicy::SingleSite;
    single.single_site = site;
    const ProductionExecution e = execute_on_federation(plan, single);
    std::printf("scenario %d = single site %s\n", idx, site);
    add(idx++, e);
    worst_single = std::max(worst_single, e.makespan_days);
  }

  // Scenario 6: outage of the UK workhorse for three weeks (§V-C.4).
  ExecutionOptions outage = federated;
  outage.faults.scheduled = {
      {.site = "Manchester", .start_hours = 30.0, .duration_hours = 21.0 * 24.0}};
  const ProductionExecution breached = execute_on_federation(plan, outage);
  std::printf("scenario 6 = federation with 3-week Manchester outage (security breach)\n");
  add(6, breached);
  std::printf("  jobs requeued onto other sites after the breach: %zu\n",
              breached.campaign.cpu.restarted_jobs);

  std::printf("\n");
  table.write_pretty(std::cout, 2);

  claim.check(fed.campaign.completed == plan.jobs.size() && fed.makespan_days < 7.0,
              fmt("federated campaign completes all %zu jobs in under a week "
                  "(measured %.2f days)",
                  plan.jobs.size(), fed.makespan_days));
  claim.check(uk.makespan_days > 7.0,
              fmt("the UK grid alone could NOT do it in a week (measured %.2f days) — "
                  "the federation was required, not just convenient",
                  uk.makespan_days));
  claim.check(fed.makespan_days <= us.makespan_days * 1.3,
              fmt("federation at least matches the US-only allocation (%.2f vs %.2f "
                  "days) while adding UK capacity and redundancy",
                  fed.makespan_days, us.makespan_days));
  claim.check(breached.campaign.completed == plan.jobs.size(),
              "campaign survives the security-breach outage via requeueing");
  claim.check(
      fed.campaign.total_cpu_hours > 45000.0 && fed.campaign.total_cpu_hours < 105000.0,
      fmt("total CPU-hours within 40%% of the paper's 75,000 (measured %.0f)",
          fed.campaign.total_cpu_hours));
  std::printf("(worst single-site option: %.1f days)\n", worst_single);
}
