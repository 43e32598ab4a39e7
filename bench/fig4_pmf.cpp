// E1/E2/E3 — Fig. 4(a-d): PMF vs COM displacement for every (κ, v) cell,
// the σ_stat/σ_sys error decomposition, and the optimal-parameter choice.
//
// Paper claims reproduced here (shape, not absolute magnitude — the
// substrate is a coarse-grained model, see DESIGN.md §2):
//   * κ = 10 pN/Å  : least σ_stat, largest σ_sys;
//   * κ = 1000 pN/Å: largest σ_stat;
//   * κ = 100 pN/Å : the trade-off value;
//   * at κ = 100, v = 12.5 and 25 Å/ns are nearly indistinguishable and
//     the selected optimum is (κ, v) = (100 pN/Å, 12.5 Å/ns).

#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "claims.hpp"
#include "spice/campaign.hpp"
#include "spice/optimizer.hpp"
#include "viz/series_writer.hpp"

using namespace spice;
using namespace spice::claims;

namespace {

/// One Fig. 4 panel: the PMF (shared λ grid, every other point) of each
/// (κ, v) cell in `cells`, one column per cell.
void print_panel(const char* title, const core::SweepResult& sweep,
                 std::vector<std::string> columns,
                 std::initializer_list<std::pair<double, double>> cells) {
  std::printf("\n--- %s ---\n", title);
  std::vector<const core::ComboResult*> found;
  for (const auto& [kappa, v] : cells) {
    for (const auto& combo : sweep.combos) {
      if (combo.kappa_pn == kappa && combo.velocity_ns == v) found.push_back(&combo);
    }
  }
  columns.insert(columns.begin(), "displacement_A");
  viz::Table table(std::move(columns));
  const auto& grid = found.front()->pmf.lambda;
  for (std::size_t g = 0; g < grid.size(); g += 2) {
    std::vector<double> row{grid[g]};
    for (const core::ComboResult* cell : found) row.push_back(cell->pmf.phi[g]);
    table.add_row(row);
  }
  table.write_pretty(std::cout, 2);
}

void print_velocity_panel(const char* title, const core::SweepResult& sweep, double kappa) {
  print_panel(title, sweep, {"v=12.5", "v=25", "v=50", "v=100"},
              {{kappa, 12.5}, {kappa, 25.0}, {kappa, 50.0}, {kappa, 100.0}});
}

}  // namespace

void spice::claims::fig4_pmf(Claim& claim) {
  std::printf("10 A sub-trajectory near the pore centre, samples ~ v\n");
  std::printf("(equal compute per cell, the paper's sqrt(8) rule)\n");

  core::SweepConfig config;
  config.samples_at_slowest = 6;
  config.grid_points = 21;
  config.bootstrap_resamples = 64;
  config.seed = 2005;

  const core::SweepResult sweep = core::run_parameter_sweep(config, true);

  print_velocity_panel("Fig 4a: kappa = 10 pN/A, PMF (kcal/mol) by velocity", sweep, 10.0);
  print_velocity_panel("Fig 4b: kappa = 100 pN/A, PMF by velocity", sweep, 100.0);
  print_velocity_panel("Fig 4c: kappa = 1000 pN/A, PMF by velocity", sweep, 1000.0);
  print_panel("Fig 4d: v = 12.5 A/ns, PMF by kappa", sweep, {"k=10", "k=100", "k=1000"},
              {{10.0, 12.5}, {100.0, 12.5}, {1000.0, 12.5}});

  std::printf("\n--- WHAM equilibrium reference (the 'putatively correct' PMF) ---\n");
  viz::Table ref({"xi_A", "phi_ref"});
  for (std::size_t g = 0; g < sweep.reference.lambda.size(); g += 3) {
    ref.add_row({sweep.reference.lambda[g], sweep.reference.phi[g]});
  }
  ref.write_pretty(std::cout, 2);

  std::printf("\n--- Error decomposition (cost-normalized: samples ~ v) ---\n");
  viz::Table errors({"kappa_pN_A", "v_A_ns", "samples", "sigma_stat", "sigma_sys",
                     "combined", "dissipated_W"});
  for (std::size_t i = 0; i < sweep.scores.size(); ++i) {
    const auto& s = sweep.scores[i];
    errors.add_row({s.kappa_pn, s.velocity_ns, static_cast<double>(s.samples), s.sigma_stat,
                    s.sigma_sys, s.combined(), sweep.combos[i].mean_dissipated_work});
  }
  errors.write_pretty(std::cout, 3);

  const core::OptimizerReport report = core::select_optimal_parameters(sweep.scores);
  std::printf("\n--- Parameter selection (paper SIV: optimal kappa=100, v=12.5) ---\n");
  for (const auto& line : report.rationale) std::printf("  %s\n", line.c_str());
  std::printf("SELECTED: kappa = %.0f pN/A, v = %.1f A/ns  (paper: 100, 12.5)\n",
              report.best.kappa_pn, report.best.velocity_ns);

  // Headline qualitative checks (EXPERIMENTS.md E1-E3).
  auto mean_for = [&](double kappa, bool stat) {
    double sum = 0.0;
    int n = 0;
    for (const auto& s : sweep.scores) {
      if (s.kappa_pn == kappa) {
        sum += stat ? s.sigma_stat : s.sigma_sys;
        ++n;
      }
    }
    return sum / n;
  };
  for (const double kappa : {10.0, 100.0, 1000.0}) {
    claim.set_group(fmt("kappa_%.0f", kappa), {{"mean_sigma_stat", mean_for(kappa, true)},
                                               {"mean_sigma_sys", mean_for(kappa, false)}});
  }
  claim.set_group("selected", {{"kappa_pn", report.best.kappa_pn},
                               {"velocity_ns", report.best.velocity_ns}});

  claim.check(mean_for(10, true) < mean_for(100, true) &&
                  mean_for(10, true) < mean_for(1000, true),
              "kappa=10 has least sigma_stat");
  claim.check(mean_for(1000, true) > mean_for(100, true) &&
                  mean_for(1000, true) > mean_for(10, true),
              "kappa=1000 has largest sigma_stat");
  claim.check(mean_for(10, false) > mean_for(100, false),
              "kappa=10 has largest sigma_sys among kappa=10/100");
  claim.check(report.best.kappa_pn == 100.0 && report.best.velocity_ns == 12.5,
              "selected parameters match the paper's (100, 12.5)");
}
