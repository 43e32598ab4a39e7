#pragma once
// Scripted interactive exploration — the paper's phase-2 *methodology*:
//
//   "These initial simulations along with real-time interactive tools are
//    used to develop a qualitative understanding of the forces and the
//    DNA's response to forces. This qualitative understanding helps in
//    choosing the initial range of parameters over which we will try to
//    find the optimal value." (§III)
//
// The human explorations are replaced by deterministic probe protocols on
// a steerable simulation:
//
//   * force-pulse probes — apply a constant steering force, watch the COM
//     respond, release, watch it relax: yields the strand's mobility
//     (response per unit force) and its relaxation time;
//   * from the relaxation time, a maximum defensible pulling velocity
//     (pulls slower than ~Å per few relaxation times sample adequately —
//     exactly the criterion behind the paper's v range);
//   * from the force scale needed to move the strand, a κ bracket (the
//     spring must dominate the felt forces over ~1 Å).

#include <cstdint>
#include <vector>

#include "steering/steerable.hpp"

namespace spice::core {

struct ExplorationConfig {
  std::vector<double> probe_forces = {10.0, 20.0, 40.0};  ///< kcal/mol/Å, applied along −z
};

struct ExplorationReport {
  double com_relaxation_ps = 0.0;   ///< COM z autocorrelation time after release
  double mobility = 0.0;            ///< Å of COM response per (kcal/mol/Å) of force
  double mean_response_a = 0.0;     ///< mean |Δz| over the probe pulses
  double suggested_v_max_ns = 0.0;  ///< Å/ns; faster pulls under-sample
  double suggested_kappa_lo_pn = 0.0;
  double suggested_kappa_hi_pn = 0.0;
  std::size_t probes_run = 0;
};

/// Run the probe protocol on `simulation` (state advances; callers give it
/// a dedicated clone). Deterministic for a fixed engine seed.
[[nodiscard]] ExplorationReport run_exploration(
    spice::steering::SteerableSimulation& simulation, const ExplorationConfig& config = {});

}  // namespace spice::core
