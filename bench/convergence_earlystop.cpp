// Convergence-gated early stop — CPU-hours saved at equal PMF error.
//
// The Fig. 4 study allocates a FIXED replica count per (κ, v) cell (the
// equal-compute rule). The streaming ConvergenceTracker lets a cell stop
// pulling as soon as its jackknife error bar at λ_max crosses a target,
// with the fixed count kept as the ceiling. This bench runs the same
// parameter study twice from the same seed — fixed-replica baseline vs
// convergence-gated — and verifies the gate completes the study with
// fewer simulated CPU-hours while the PMF error versus the common
// umbrella/WHAM reference stays within the stop target.
//
// CPU-hours use the paper's cost model as a proxy: every MD step is
// priced as one step of the 300k-atom production system (the model-system
// step count is the campaign's own compute currency, see EXPERIMENTS.md).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <vector>

#include "claims.hpp"
#include "fe/error_analysis.hpp"
#include "spice/campaign.hpp"
#include "spice/cost_model.hpp"
#include "viz/series_writer.hpp"

using namespace spice;
using namespace spice::claims;

namespace {

core::SweepConfig study_config() {
  core::SweepConfig config;
  // Fig. 4 κ ladder at the two faster velocities (bench-speed subset; the
  // equal-compute rule still allocates samples ∝ v within the cell set).
  config.kappas_pn = {10.0, 100.0, 1000.0};
  config.velocities_ns = {25.0, 100.0};
  config.samples_at_slowest = 4;
  config.grid_points = 11;
  config.bootstrap_resamples = 48;
  config.seed = 2005;
  return config;
}

/// Paper-scale CPU-hours for a number of MD steps (cost-model proxy).
double cpu_hours_for_steps(const core::MdCostModel& model, std::uint64_t steps) {
  const double ns = static_cast<double>(steps) * model.timestep_fs * 1e-6;
  return ns * core::cpu_hours_per_ns(model);
}

}  // namespace

void spice::claims::convergence_earlystop(Claim& claim) {
  std::printf("same seed, same ceilings; gate: sigma_jack <= target\n\n");

  const double target_error_kcal = 1.0;

  // Baseline: fixed replica counts, WHAM reference computed once here and
  // shared by both scoring passes (identical seed -> identical master).
  core::SweepConfig base_config = study_config();
  const core::SweepResult baseline = core::run_parameter_sweep(base_config, true);

  core::SweepConfig gated_config = study_config();
  gated_config.early_stop_error_kcal = target_error_kcal;
  gated_config.early_stop_min_samples = 4;
  const core::SweepResult gated = core::run_parameter_sweep(gated_config, false);

  // --- per-cell comparison -------------------------------------------------
  viz::Table table({"kappa_pN_A", "v_A_ns", "n_base", "n_gated", "sig_sys_base",
                    "sig_sys_gated", "sig_jack_gated"});
  std::uint64_t steps_base = 0;
  std::uint64_t steps_gated = 0;
  double err_base_sum = 0.0;
  double err_gated_sum = 0.0;
  std::size_t cells_stopped = 0;
  bool stopped_cells_within_target = true;
  for (std::size_t i = 0; i < baseline.combos.size(); ++i) {
    const core::ComboResult& b = baseline.combos[i];
    const core::ComboResult& g = gated.combos[i];
    const double sys_b = fe::systematic_error(b.pmf, baseline.reference);
    const double sys_g = fe::systematic_error(g.pmf, baseline.reference);
    steps_base += b.md_steps;
    steps_gated += g.md_steps;
    err_base_sum += sys_b;
    err_gated_sum += sys_g;
    if (g.early_stopped) {
      ++cells_stopped;
      if (g.convergence.jackknife_error > target_error_kcal) {
        stopped_cells_within_target = false;
      }
    }
    table.add_row({b.kappa_pn, b.velocity_ns, static_cast<double>(b.samples),
                   static_cast<double>(g.samples), sys_b, sys_g,
                   g.convergence.jackknife_error});
  }
  table.write_pretty(std::cout, 3);

  const double n_cells = static_cast<double>(baseline.combos.size());
  const double err_base = err_base_sum / n_cells;
  const double err_gated = err_gated_sum / n_cells;

  const core::MdCostModel model;
  const double hours_base = cpu_hours_for_steps(model, steps_base);
  const double hours_gated = cpu_hours_for_steps(model, steps_gated);
  const double saved_pct = 100.0 * (1.0 - hours_gated / hours_base);

  std::printf("\ncompute:  baseline %" PRIu64 " MD steps (%.0f paper-scale CPU-hours)\n",
              steps_base, hours_base);
  std::printf("          gated    %" PRIu64 " MD steps (%.0f paper-scale CPU-hours)  "
              "-> %.1f%% saved\n",
              steps_gated, hours_gated, saved_pct);
  std::printf("PMF error vs WHAM reference: baseline %.3f, gated %.3f kcal/mol "
              "(delta %+.3f, stop target %.1f)\n",
              err_base, err_gated, err_gated - err_base, target_error_kcal);
  std::printf("early-stopped cells: %zu/%zu\n", cells_stopped, baseline.combos.size());

  // --- claims --------------------------------------------------------------
  claim.set_group("early_stop", {{"target_error_kcal", target_error_kcal}, {"cells", n_cells},
                                 {"cells_early_stopped", cells_stopped},
                                 {"md_steps_baseline", steps_base}, {"md_steps_gated", steps_gated},
                                 {"cpu_hours_baseline", hours_base}, {"cpu_hours_gated", hours_gated},
                                 {"cpu_hours_saved_pct", saved_pct},
                                 {"pmf_error_baseline_kcal", err_base},
                                 {"pmf_error_gated_kcal", err_gated}});

  claim.check(cells_stopped > 0 && steps_gated < steps_base,
              fmt("the gate completes the study with fewer CPU-hours "
                  "(%zu cells stop early, %.1f%% saved)",
                  cells_stopped, saved_pct));
  claim.check(err_gated - err_base <= target_error_kcal,
              fmt("PMF error stays within the stop target of the baseline "
                  "(%+.3f <= %.1f kcal/mol)",
                  err_gated - err_base, target_error_kcal));
  claim.check(stopped_cells_within_target,
              "every early-stopped cell ends with sigma_jack <= target");
}
