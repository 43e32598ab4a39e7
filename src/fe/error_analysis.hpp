#pragma once
// Statistical and systematic error analysis for SMD-JE PMFs — the machinery
// behind the paper's Fig. 4 parameter study.
//
// σ_stat: trajectory-bootstrap standard error of the JE estimate, averaged
//         over the λ-grid. The paper normalizes statistical errors for
//         compute cost ("in the time one sample at v = 12.5 Å/ns can be
//         generated, eight samples at v = 100 Å/ns can be generated; the
//         statistical error of the former should be set to √8 of the
//         latter"). Running the sweep with sample counts proportional to v
//         realises exactly that normalization.
//
// σ_sys:  mean absolute deviation of the JE estimate from the reference
//         ("putatively correct") PMF — in the paper, the adiabatic limit;
//         here, an umbrella-sampling/WHAM reference on the same system.

#include <cstdint>
#include <vector>

#include "fe/jarzynski.hpp"

namespace spice::fe {

/// σ_stat(λ) by bootstrap over trajectories: resample the ensemble's rows
/// with replacement `resamples` times and take the stddev of the resulting
/// JE estimates at each grid point.
[[nodiscard]] std::vector<double> bootstrap_stat_error(const WorkEnsemble& ensemble,
                                                       double temperature_k,
                                                       Estimator estimator,
                                                       std::size_t resamples,
                                                       std::uint64_t seed);

/// Mean |Φ_est − Φ_ref| over the overlapping λ-range; the reference is
/// linearly interpolated onto the estimate's grid.
[[nodiscard]] double systematic_error(const PmfEstimate& estimate, const PmfEstimate& reference);

/// Scalar summary of one (κ, v) parameter combination.
struct ParameterScore {
  double kappa_pn = 0.0;       ///< pN/Å
  double velocity_ns = 0.0;    ///< Å/ns
  std::size_t samples = 0;     ///< trajectories used
  double sigma_stat = 0.0;     ///< λ-averaged bootstrap error, kcal/mol
  double sigma_sys = 0.0;      ///< mean |Φ − Φ_ref|, kcal/mol
  /// Combined figure of merit: √(σ_stat² + σ_sys²) — lower is better.
  [[nodiscard]] double combined() const;
};

/// λ-average of a per-grid-point error vector.
[[nodiscard]] double average_error(const std::vector<double>& per_point);

}  // namespace spice::fe
