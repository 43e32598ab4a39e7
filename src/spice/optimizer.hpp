#pragma once
// Parameter selection — the decision procedure of the paper's §IV:
//
//   * κ = 10 pN/Å  : least σ_stat but largest σ_sys (spring too weak; the
//     SMD atoms are "almost un-coupled" and the sampled coordinate smears);
//   * κ = 1000 pN/Å: largest σ_stat (stiff spring transmits every thermal
//     kick into the work integral);
//   * κ = 100 pN/Å : the trade-off value;
//   * at κ = 100, v = 12.5 and 25 Å/ns give indistinguishable PMFs and
//     σ_sys, and the paper settles on (κ, v) = (100 pN/Å, 12.5 Å/ns).
//
// There is "no analytical method that provides a direct means to determine
// the best parameters" — the optimizer is explicitly a heuristic over the
// measured error decomposition, and it reports its reasoning.

#include <string>
#include <vector>

#include "fe/error_analysis.hpp"

namespace spice::core {

struct OptimizerReport {
  spice::fe::ParameterScore best;
  std::vector<std::string> rationale;  ///< human-readable decision trail
};

/// Apply the paper's selection rule to a sweep's scores:
///  1. pick the κ with the smallest combined √(σ_stat² + σ_sys²) averaged
///     over its velocities (the trade-off spring constant);
///  2. within that κ, find the velocities whose σ_sys is indistinguishable
///     from the best (within max(1 kcal/mol, 25 %) of the per-κ minimum),
///     and pick the slowest of them (slower pulls are closer to the
///     adiabatic limit, so when errors tie, take the one with less
///     systematic bias headroom).
[[nodiscard]] OptimizerReport select_optimal_parameters(
    const std::vector<spice::fe::ParameterScore>& scores);

}  // namespace spice::core
