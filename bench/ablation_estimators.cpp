// Ablation — free-energy estimator choice on the translocation system.
//
// The paper uses the one-sided Jarzynski exponential average. This bench
// compares, on identical forward ensembles plus a matching reverse
// ensemble, every estimator the library offers:
//   JE exponential | 1st cumulant | 2nd cumulant | BAR | Crooks crossing
// against the WHAM equilibrium value of ΔF over the sub-trajectory —
// quantifying how much the (harder to schedule, notes §VI) bidirectional
// protocol would have bought the original study.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "claims.hpp"
#include "fe/bar.hpp"
#include "fe/jarzynski.hpp"
#include "fe/pmf.hpp"
#include "spice/campaign.hpp"
#include "viz/series_writer.hpp"

using namespace spice;
using namespace spice::claims;

void spice::claims::ablation_estimators(Claim& claim) {
  core::SweepConfig config;
  config.pull_distance = 6.0;
  config.grid_points = 13;
  config.seed = 777;

  pore::TranslocationConfig system_config = config.system;
  system_config.md.seed = config.seed;
  const pore::TranslocationSystem master = pore::build_translocation_system(system_config);

  // The WHAM "truth" for ΔF(0 → 6 Å).
  fe::PmfEstimate wham = core::compute_reference_pmf(master, config);
  const double truth = fe::pmf_at(wham, config.pull_distance);
  std::printf("\nWHAM equilibrium DeltaF(0 -> %.0f A) = %+.2f kcal/mol\n",
              config.pull_distance, truth);

  viz::Table table({"velocity_A_ns", "n_each_way", "JE_exp", "cumulant1", "cumulant2",
                    "BAR", "Crooks", "overlap"});
  double je_err_fast = 0.0;
  double bar_err_fast = 0.0;
  for (const double velocity : {50.0, 200.0}) {
    const std::size_t n = 10;
    std::vector<std::uint64_t> forward_seeds;
    std::vector<std::uint64_t> reverse_seeds;
    for (std::size_t r = 0; r < n; ++r) {
      forward_seeds.push_back(9000 + r * 7);
      reverse_seeds.push_back(9500 + r * 7);
    }
    const std::vector<smd::PullResult> forward =
        core::run_forward_pulls(master, config, 100.0, velocity, forward_seeds);
    std::vector<double> wf;
    for (const auto& pull : forward) wf.push_back(pull.samples.back().work);
    std::vector<double> wr;
    for (const auto& pull :
         core::run_reverse_pulls(master, config, 100.0, velocity, reverse_seeds)) {
      wr.push_back(pull.samples.back().work);
    }
    const fe::WorkEnsemble ensemble =
        fe::grid_work_ensemble(forward, config.pull_distance, config.grid_points);
    const double t = config.system.md.temperature;
    const double je =
        fe::estimate_pmf(ensemble, t, fe::Estimator::Exponential).phi.back();
    const double c1 =
        fe::estimate_pmf(ensemble, t, fe::Estimator::FirstCumulant).phi.back();
    const double c2 =
        fe::estimate_pmf(ensemble, t, fe::Estimator::SecondCumulant).phi.back();
    const fe::BarResult bar = fe::bennett_acceptance_ratio(wf, wr, t);
    const double crooks = fe::crooks_gaussian_crossing(wf, wr);
    const double overlap = fe::work_distribution_overlap(wf, wr);
    table.add_row({velocity, static_cast<double>(n), je, c1, c2, bar.delta_f, crooks,
                   overlap});
    if (velocity == 200.0) {
      je_err_fast = std::abs(je - truth);
      bar_err_fast = std::abs(bar.delta_f - truth);
    }
  }
  table.write_pretty(std::cout, 2);

  claim.check(bar_err_fast <= je_err_fast + 0.3,
              fmt("at the fast velocity, bidirectional BAR is closer to the WHAM truth "
                  "than one-sided JE (|%.2f| vs |%.2f| kcal/mol off)",
                  bar_err_fast, je_err_fast));
  std::printf("(the paper's one-sided protocol is the cheap-to-schedule choice; BAR\n"
              " needs reverse pulls, i.e. twice the grid reservations — §VI trade-off)\n");
}
