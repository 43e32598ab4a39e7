// Ablation — design choice called out in DESIGN.md: the work definition.
//
// The reproduction integrates work offline from the SMD force series at
// the NAMD-like output stride (WorkSource::SampledForce), which is what
// makes κ = 1000 pN/Å "extremely noisy" in Fig. 4c. This bench quantifies
// that choice against the numerically ideal per-step accumulation
// (WorkSource::Accumulated): the stiff-spring σ_stat excess should largely
// disappear with exact work, demonstrating the noise is a *measurement*
// property of the original workflow, not of the dynamics.

#include <cstdio>
#include <iostream>
#include <vector>

#include "claims.hpp"
#include "fe/error_analysis.hpp"
#include "spice/campaign.hpp"
#include "viz/series_writer.hpp"

using namespace spice;
using namespace spice::claims;

void spice::claims::ablation_work_source(Claim& claim) {
  viz::Table table({"kappa_pN_A", "sigma_stat_sampled", "sigma_stat_exact", "ratio"});
  double ratio_stiff = 0.0;
  double ratio_soft = 0.0;

  for (const double kappa : {10.0, 100.0, 1000.0}) {
    core::SweepConfig config;
    config.kappas_pn = {kappa};
    config.velocities_ns = {50.0};
    config.samples_at_slowest = 12;
    config.grid_points = 11;
    config.bootstrap_resamples = 64;
    config.seed = 99;

    config.work_source = fe::WorkSource::SampledForce;
    const core::SweepResult sampled = core::run_parameter_sweep(config, false);

    config.work_source = fe::WorkSource::Accumulated;
    const core::SweepResult exact = core::run_parameter_sweep(config, false);

    const double s = sampled.combos[0].mean_sigma_stat;
    const double e = exact.combos[0].mean_sigma_stat;
    const double ratio = s / std::max(e, 1e-9);
    if (kappa == 1000.0) ratio_stiff = ratio;
    if (kappa == 10.0) ratio_soft = ratio;
    table.add_row({kappa, s, e, ratio});
  }
  table.write_pretty(std::cout, 3);

  claim.check(ratio_stiff > ratio_soft,
              fmt("force-sampling noise penalizes the stiff spring far more than the "
                  "soft one (ratio %.1fx at kappa=1000 vs %.1fx at kappa=10)",
                  ratio_stiff, ratio_soft));
  std::printf("note: with exact work accumulation the kappa=1000 penalty shrinks — the\n"
              "Fig. 4c jaggedness is a property of the measurement pipeline the paper\n"
              "used (finite SMD force-output frequency), reproduced deliberately here.\n");
}
