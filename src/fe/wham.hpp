#pragma once
// Umbrella sampling + WHAM: the equilibrium reference PMF.
//
// The paper calls the adiabatic (infinitely slow pulling) limit the
// "putatively correct PMF" but never computes it directly. To quantify
// σ_sys we need that reference, so the reproduction computes it with
// umbrella sampling along the same COM reaction coordinate, unbiased by
// the Weighted Histogram Analysis Method (WHAM) — a standard equilibrium
// method whose systematic error is independent of the SMD-JE parameters
// under study.

#include <cstdint>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "fe/jarzynski.hpp"
#include "md/engine.hpp"

namespace spice::fe {

/// One umbrella window's data: bias U_k(ξ) = ½ κ (ξ − center)².
struct UmbrellaWindow {
  double center = 0.0;             ///< bias centre, Å
  double kappa = 0.0;              ///< bias stiffness, kcal/mol/Å²
  std::vector<double> xi_samples;  ///< equilibrium ξ samples under the bias
};

struct WhamResult {
  PmfEstimate pmf;                   ///< Φ(ξ) at bin centres, min shifted to data range
  std::vector<double> window_free_energies;  ///< converged f_k, kcal/mol
  std::size_t iterations = 0;
  bool converged = false;
};

/// Solve the WHAM equations over the given windows at temperature T.
/// The histogram range is [min ξ, max ξ] over all samples, in 60 bins; the
/// iteration stops once max |Δf_k| < 1e-8 kcal/mol, or after 50000 sweeps
/// (converged = false).
[[nodiscard]] WhamResult wham(std::span<const UmbrellaWindow> windows, double temperature_k);

/// Driver: run a ladder of umbrella windows on `engine` along `direction`,
/// restraining the COM displacement (measured from `com_reference`) of
/// `atoms` at evenly spaced centres in [xi_min, xi_max], then WHAM-unbias.
struct UmbrellaConfig {
  double xi_min = 0.0;
  double xi_max = 10.0;
  std::size_t windows = 21;
  double kappa = 10.0;  ///< bias stiffness, internal units (kcal/mol/Å²)
  std::size_t equilibration_steps = 2000;
  std::size_t sampling_steps = 8000;
};

[[nodiscard]] WhamResult run_umbrella_sampling(spice::md::Engine& engine,
                                               std::span<const std::uint32_t> atoms,
                                               const Vec3& direction, const Vec3& com_reference,
                                               const UmbrellaConfig& config);

}  // namespace spice::fe
