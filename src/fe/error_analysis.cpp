#include "fe/error_analysis.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"

namespace spice::fe {

std::vector<double> bootstrap_stat_error(const WorkEnsemble& ensemble, double temperature_k,
                                         Estimator estimator, std::size_t resamples,
                                         std::uint64_t seed) {
  SPICE_REQUIRE(ensemble.trajectories() >= 2, "bootstrap needs at least two trajectories");
  SPICE_REQUIRE(resamples >= 2, "bootstrap needs at least two resamples");

  Rng rng = Rng::stream(seed, 0x626f6f74 /*"boot"*/);
  const std::size_t n_traj = ensemble.trajectories();
  std::vector<RunningStats> per_point(ensemble.grid_points());

  WorkEnsemble resampled;
  resampled.lambda = ensemble.lambda;
  resampled.work.resize(n_traj);
  for (std::size_t r = 0; r < resamples; ++r) {
    for (std::size_t t = 0; t < n_traj; ++t) {
      resampled.work[t] = ensemble.work[rng.uniform_index(n_traj)];
    }
    const PmfEstimate est = estimate_pmf(resampled, temperature_k, estimator);
    for (std::size_t g = 0; g < est.phi.size(); ++g) per_point[g].add(est.phi[g]);
  }

  std::vector<double> out(ensemble.grid_points());
  for (std::size_t g = 0; g < out.size(); ++g) out[g] = per_point[g].stddev();
  return out;
}

double systematic_error(const PmfEstimate& estimate, const PmfEstimate& reference) {
  SPICE_REQUIRE(!estimate.lambda.empty(), "empty estimate");
  SPICE_REQUIRE(reference.lambda.size() >= 2, "reference needs at least two points");

  auto ref_at = [&reference](double x) {
    const auto& xs = reference.lambda;
    if (x <= xs.front()) return reference.phi.front();
    if (x >= xs.back()) return reference.phi.back();
    const auto it = std::lower_bound(xs.begin(), xs.end(), x);
    const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
    const std::size_t lo = hi - 1;
    const double t = (x - xs[lo]) / (xs[hi] - xs[lo]);
    return reference.phi[lo] * (1.0 - t) + reference.phi[hi] * t;
  };

  RunningStats deviation;
  for (std::size_t g = 0; g < estimate.lambda.size(); ++g) {
    const double x = estimate.lambda[g];
    if (x < reference.lambda.front() || x > reference.lambda.back()) continue;
    deviation.add(std::abs(estimate.phi[g] - ref_at(x)));
  }
  SPICE_REQUIRE(deviation.count() > 0, "estimate and reference grids do not overlap");
  return deviation.mean();
}

double ParameterScore::combined() const {
  return std::sqrt(sigma_stat * sigma_stat + sigma_sys * sigma_sys);
}

double average_error(const std::vector<double>& per_point) {
  SPICE_REQUIRE(!per_point.empty(), "empty error vector");
  RunningStats s;
  for (double e : per_point) s.add(e);
  return s.mean();
}

}  // namespace spice::fe
