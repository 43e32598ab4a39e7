#include "fe/wham.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "common/units.hpp"
#include "smd/restraint.hpp"

namespace spice::fe {

namespace {
constexpr std::size_t kWhamBins = 60;
constexpr double kWhamTolerance = 1e-8;  ///< max |Δf_k| (kcal/mol) for convergence
constexpr std::size_t kWhamMaxIterations = 50000;
}  // namespace

WhamResult wham(std::span<const UmbrellaWindow> windows, double temperature_k) {
  SPICE_REQUIRE(windows.size() >= 2, "WHAM needs at least two windows");
  SPICE_REQUIRE(temperature_k > 0.0, "temperature must be positive");
  for (const auto& w : windows) {
    SPICE_REQUIRE(!w.xi_samples.empty(), "umbrella window has no samples");
    SPICE_REQUIRE(w.kappa > 0.0, "umbrella window needs positive kappa");
  }

  const double kt = units::kT(temperature_k);
  const double beta = 1.0 / kt;

  // Histogram range over all samples.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const auto& w : windows) {
    for (double x : w.xi_samples) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
  SPICE_REQUIRE(hi > lo, "all umbrella samples identical");
  // Nudge the upper edge so the max sample lands in the last bin.
  hi += (hi - lo) * 1e-9 + 1e-12;

  const std::size_t bins = kWhamBins;
  const double width = (hi - lo) / static_cast<double>(bins);
  const std::size_t n_windows = windows.size();

  // n[k][b]: counts; N[k]: totals.
  std::vector<std::vector<double>> counts(n_windows, std::vector<double>(bins, 0.0));
  std::vector<double> totals(n_windows, 0.0);
  for (std::size_t k = 0; k < n_windows; ++k) {
    for (double x : windows[k].xi_samples) {
      const auto b = static_cast<std::size_t>((x - lo) / width);
      counts[k][std::min(b, bins - 1)] += 1.0;
      totals[k] += 1.0;
    }
  }
  std::vector<double> sum_counts(bins, 0.0);
  for (std::size_t b = 0; b < bins; ++b) {
    for (std::size_t k = 0; k < n_windows; ++k) sum_counts[b] += counts[k][b];
  }

  // Bias energies U_k at bin centres.
  std::vector<double> centers(bins);
  for (std::size_t b = 0; b < bins; ++b) centers[b] = lo + (static_cast<double>(b) + 0.5) * width;
  std::vector<std::vector<double>> bias(n_windows, std::vector<double>(bins));
  for (std::size_t k = 0; k < n_windows; ++k) {
    for (std::size_t b = 0; b < bins; ++b) {
      const double d = centers[b] - windows[k].center;
      bias[k][b] = 0.5 * windows[k].kappa * d * d;
    }
  }

  // Self-consistent iteration on the window free energies f_k.
  std::vector<double> f(n_windows, 0.0);
  std::vector<double> p(bins, 0.0);
  WhamResult result;
  for (std::size_t iter = 0; iter < kWhamMaxIterations; ++iter) {
    // p(b) ∝ Σ_k n_k(b) / Σ_k N_k exp(−β (U_k(b) − f_k))
    for (std::size_t b = 0; b < bins; ++b) {
      double denom = 0.0;
      for (std::size_t k = 0; k < n_windows; ++k) {
        denom += totals[k] * std::exp(-beta * (bias[k][b] - f[k]));
      }
      p[b] = denom > 0.0 ? sum_counts[b] / denom : 0.0;
    }
    // f_k = −kT ln Σ_b p(b) exp(−β U_k(b))
    double max_change = 0.0;
    for (std::size_t k = 0; k < n_windows; ++k) {
      double z = 0.0;
      for (std::size_t b = 0; b < bins; ++b) z += p[b] * std::exp(-beta * bias[k][b]);
      const double f_new = -kt * std::log(std::max(z, 1e-300));
      max_change = std::max(max_change, std::abs(f_new - f[k]));
      f[k] = f_new;
    }
    // Gauge fix: f_0 = 0.
    const double f0 = f[0];
    for (auto& fk : f) fk -= f0;
    result.iterations = iter + 1;
    if (max_change < kWhamTolerance) {
      result.converged = true;
      break;
    }
  }

  // PMF from the unbiased distribution; drop empty bins.
  result.pmf.lambda.reserve(bins);
  result.pmf.phi.reserve(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    if (p[b] <= 0.0 || sum_counts[b] <= 0.0) continue;
    result.pmf.lambda.push_back(centers[b]);
    result.pmf.phi.push_back(-kt * std::log(p[b]));
  }
  SPICE_REQUIRE(result.pmf.lambda.size() >= 2, "WHAM produced fewer than two populated bins");
  // Anchor Φ = 0 at the first populated bin (the JE estimates anchor at
  // λ = 0; callers re-anchor as needed via fe::shift_pmf).
  const double phi0 = result.pmf.phi.front();
  for (auto& v : result.pmf.phi) v -= phi0;
  result.window_free_energies = std::move(f);
  return result;
}

WhamResult run_umbrella_sampling(spice::md::Engine& engine, std::span<const std::uint32_t> atoms,
                                 const Vec3& direction, const Vec3& com_reference,
                                 const UmbrellaConfig& config) {
  SPICE_REQUIRE(config.windows >= 2, "umbrella sampling needs at least two windows");
  SPICE_REQUIRE(config.xi_max > config.xi_min, "umbrella range must be non-empty");

  auto restraint = std::make_shared<spice::smd::StaticRestraint>(
      std::vector<std::uint32_t>(atoms.begin(), atoms.end()), direction, config.kappa,
      config.xi_min);
  restraint->attach_reference(com_reference);
  restraint->set_record_samples(true);
  engine.add_contribution(restraint);

  std::vector<UmbrellaWindow> windows;
  windows.reserve(config.windows);
  for (std::size_t k = 0; k < config.windows; ++k) {
    const double center =
        config.xi_min + (config.xi_max - config.xi_min) * static_cast<double>(k) /
                            static_cast<double>(config.windows - 1);
    restraint->set_center(center);
    engine.step(config.equilibration_steps);
    restraint->reset_statistics();
    engine.step(config.sampling_steps);

    UmbrellaWindow w;
    w.center = center;
    w.kappa = config.kappa;
    w.xi_samples = restraint->xi_samples();
    windows.push_back(std::move(w));
  }
  return wham(windows, engine.config().temperature);
}

}  // namespace spice::fe
