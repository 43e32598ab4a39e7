// E12 — Conclusion §VI: "the grid computing infrastructure used here for
// computing free energies by SMD-JE can be easily extended to compute free
// energies using different approaches (e.g., thermodynamic integration)."
//
// Run TI along the same translocation coordinate on the same system, and
// compare the three independent free-energy routes the library provides:
// WHAM (equilibrium reference), SMD-JE (the paper's method at its optimal
// parameters), and TI (the extension). Also show the TI λ-points mapping
// onto grid jobs — the "same infrastructure" claim.

#include <cstdio>
#include <iostream>

#include "claims.hpp"
#include "fe/pmf.hpp"
#include "fe/ti.hpp"
#include "md/observables.hpp"
#include "spice/campaign.hpp"
#include "spice/cost_model.hpp"
#include "spice/production.hpp"
#include "viz/series_writer.hpp"

using namespace spice;
using namespace spice::claims;

void spice::claims::ti_extension(Claim& claim) {
  core::SweepConfig config;
  config.kappas_pn = {100.0};
  config.velocities_ns = {12.5};
  config.samples_at_slowest = 4;
  config.grid_points = 11;
  config.seed = 4242;

  // Master system shared by all three methods.
  pore::TranslocationConfig system_config = config.system;
  system_config.md.seed = config.seed;
  const pore::TranslocationSystem master = pore::build_translocation_system(system_config);

  // Route 1: SMD-JE at the paper's optimal parameters.
  const core::ComboResult je = core::run_combo(master, config, 100.0, 12.5);

  // Route 2: WHAM umbrella reference.
  fe::PmfEstimate wham_pmf = core::compute_reference_pmf(master, config);

  // Route 3: thermodynamic integration.
  md::Engine ti_engine = master.engine.clone(config.seed ^ 0x7469ULL /*"ti"*/);
  const Vec3 com_ref = md::center_of_mass(ti_engine.positions(), ti_engine.topology(),
                                          std::vector<std::uint32_t>{0});
  fe::TiConfig ti_config;
  ti_config.xi_min = 0.0;
  ti_config.xi_max = config.pull_distance;
  ti_config.points = 11;
  ti_config.kappa = 30.0;
  ti_config.equilibration_steps = 2500;
  ti_config.sampling_steps = 14000;
  const std::vector<std::uint32_t> atoms{0};
  const fe::TiResult ti =
      fe::run_thermodynamic_integration(ti_engine, atoms, Vec3{0, 0, -1.0}, com_ref, ti_config);

  std::printf("\n--- Three free-energy routes along the translocation coordinate ---\n");
  viz::Table table({"xi_A", "phi_SMD_JE", "phi_WHAM", "phi_TI", "TI_mean_force"});
  double max_ti_wham_dev = 0.0;
  for (std::size_t g = 0; g < je.pmf.lambda.size(); ++g) {
    const double xi = je.pmf.lambda[g];
    const double w = fe::pmf_at(wham_pmf, xi);
    const double t = fe::pmf_at(ti.pmf, xi);
    double mf = 0.0;
    for (const auto& p : ti.points) {
      if (std::abs(p.lambda - xi) < 1e-9) mf = p.mean_force;
    }
    max_ti_wham_dev = std::max(max_ti_wham_dev, std::abs(w - t));
    table.add_row({xi, je.pmf.phi[g], w, t, mf});
  }
  table.write_pretty(std::cout, 2);

  // "Same infrastructure": TI windows are independent jobs exactly like
  // SMD pulls — map them onto the federation and execute.
  core::SweepConfig ti_as_jobs;
  ti_as_jobs.kappas_pn = {100.0};
  // Each TI window samples ~10 ps... scaled to the all-atom cost model the
  // paper would use ~0.5 ns per window; model as an 0.5 ns job per point.
  ti_as_jobs.velocities_ns = {20.0};  // 10 Å / 0.5 ns equivalent
  const core::ProductionPlan plan =
      core::plan_production_jobs(ti_as_jobs, core::MdCostModel{}, ti_config.points);
  const core::ProductionExecution exec = core::execute_on_federation(plan, {});
  std::printf("\nTI campaign on the federation: %zu window-jobs, %.0f CPU-h, "
              "%.2f days makespan\n",
              plan.jobs.size(), exec.campaign.total_cpu_hours, exec.makespan_days);

  claim.check(max_ti_wham_dev < 4.0,
              fmt("TI and WHAM agree along the profile (max |dev| %.2f kcal/mol < 4)",
                  max_ti_wham_dev));
  claim.check(exec.campaign.completed == plan.jobs.size(),
              "TI windows executed as ordinary grid jobs on the federation");
}
