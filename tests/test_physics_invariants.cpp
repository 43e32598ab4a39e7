// The physics invariant suite (ctest label: physics): statistical-mechanics
// laws with closed-form references, checked with testkit's statistical
// gates over seed sweeps, parameterized over thread count (and integrator
// where it applies). Scale knobs: SPICE_SWEEP_SEEDS and
// SPICE_SWEEP_THREADS (the nightly CI job runs 100 seeds at 1,2,8).
//
// Regression teeth (what each law catches):
//   equipartition / MB velocities   thermostat & kinetic bookkeeping
//   positional variance / χ²(x)     CONFIGURATIONAL ensemble — a mis-scaled
//                                   force (F → s·F) shifts these by 1/s
//                                   while the thermostat hides it from the
//                                   kinetic rows
//   free-diffusion MSD              friction/noise balance (FDT)
//   Jarzynski on harmonic pulls     work accounting ⟨e^{−βW}⟩ = e^{−βΔF}
//   finite-difference consistency   F = −∇U, deterministic
//   NVE drift                       integrator symplecticity

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/statistics.hpp"
#include "common/units.hpp"
#include "testkit/testkit.hpp"

namespace {

using namespace spice;
using namespace spice::testkit;

/// The execution axes every law is checked on.
struct Axis {
  std::size_t threads;

  [[nodiscard]] std::string label() const { return "threads=" + std::to_string(threads); }
  [[nodiscard]] MdRunConfig run(std::uint64_t seed) const {
    return {.seed = seed, .threads = threads};
  }
  /// Stream id so sweeps on different axes draw distinct seed lists. The
  /// factor 2 is historical: changing it would move every axis onto new
  /// seeds.
  [[nodiscard]] std::uint64_t stream() const { return threads * 2; }
};

std::vector<Axis> axes() {
  std::vector<Axis> out;
  for (const std::size_t threads : sweep_thread_counts({1, 8})) out.push_back({threads});
  return out;
}

// --- canonical ensemble: well array ----------------------------------------

TEST(PhysicsInvariants, WellArrayEquilibriumStatistics) {
  const WellArraySpec spec;
  const EquilibriumProtocol protocol;
  const Cdf normal = [](double v) { return standard_normal_cdf(v); };

  for (const Axis& axis : axes()) {
    SCOPED_TRACE(axis.label());
    const SeedSweep sweep({.seeds = 4, .base_seed = 1001, .stream = axis.stream()});

    // One sweep feeds all four laws: per-seed scalar means for the z-tests
    // (the across-seed scatter absorbs autocorrelation honestly) and
    // pooled normalized samples for the distribution tests.
    std::vector<double> seed_temperature;
    std::vector<double> seed_position_ratio;
    Histogram positions(-5.0, 5.0, 40);
    Histogram velocities(-5.0, 5.0, 40);
    for (const std::uint64_t seed : sweep.seeds()) {
      const EquilibriumSamples s = sample_well_array(axis.run(seed), spec, protocol);
      seed_temperature.push_back(mean(s.temperatures));
      seed_position_ratio.push_back(mean(s.position_energy_ratio));
      // Thin the position stream (every 2nd snapshot's worth) so residual
      // time correlation cannot distort the χ² calibration.
      const std::size_t per_snapshot = spec.particles * 3;
      for (std::size_t i = 0; i < s.scaled_positions.size(); ++i) {
        if ((i / per_snapshot) % 2 == 0) positions.add(s.scaled_positions[i]);
      }
      for (const double v : s.scaled_velocities) velocities.add(v);
    }

    // Equipartition: ⟨T_inst⟩ = T_target.
    EXPECT_TRUE(z_test_mean(seed_temperature, spec.temperature)) << "equipartition";
    // Harmonic-well positional variance: ⟨k x²⟩/kT = 1 per axis. THE
    // 1 %-force-bug detector: a force scale s biases this to 1/s, many σ
    // out even at the default seed count.
    EXPECT_TRUE(z_test_mean(seed_position_ratio, 1.0)) << "positional variance";
    // Full distributions, not just second moments.
    EXPECT_TRUE(chi_squared_vs_cdf(positions, normal)) << "position distribution";
    EXPECT_TRUE(chi_squared_vs_cdf(velocities, normal)) << "Maxwell-Boltzmann velocities";
  }
}

// --- fluctuation–dissipation: free diffusion --------------------------------

TEST(PhysicsInvariants, FreeDiffusionMsdMatchesLangevinTheory) {
  const WellArraySpec spec;
  const double horizon_ps = 6.0;
  const double expected = free_msd_expected(spec, horizon_ps);

  for (const Axis& axis : axes()) {
    SCOPED_TRACE(axis.label());
    const SeedSweep sweep({.seeds = 4, .base_seed = 2002, .stream = axis.stream()});
    const std::vector<double> seed_msd = sweep.collect([&](std::uint64_t seed) {
      return mean(sample_msd(axis.run(seed), horizon_ps, spec));
    });
    EXPECT_TRUE(z_test_mean(seed_msd, expected)) << "MSD vs 6D(t - (1-e^{-gt})/g)";
  }
}

// --- work fluctuations: Jarzynski on analytic pulls -------------------------

double jarzynski_delta_f(const std::vector<double>& works, double temperature_k) {
  const double kt = units::kT(temperature_k);
  std::vector<double> neg_beta_w;
  neg_beta_w.reserve(works.size());
  for (const double w : works) neg_beta_w.push_back(-w / kt);
  return -kt * log_mean_exp(neg_beta_w);
}

TEST(PhysicsInvariants, JarzynskiFreeParticleDeltaFIsZero) {
  // Pulling a free particle does no net reversible work: ΔF = 0 exactly by
  // translational invariance, for ANY pull speed and spring. This pins the
  // work bookkeeping (not the force field — it must pass even with a
  // mis-scaled force, which is what makes the harmonic-well rows below
  // meaningful as a contrast).
  HarmonicPullSpec spec;
  spec.k_well = 0.0;
  const Axis axis{1};
  SCOPED_TRACE(axis.label());
  const SeedSweep sweep({.seeds = 12, .base_seed = 3003, .stream = axis.stream()});
  const std::vector<double> works = sweep.collect([&](std::uint64_t seed) {
    HarmonicPull pull = make_harmonic_pull(axis.run(seed), spec);
    return run_harmonic_pull_work(pull);
  });
  const double delta_f = jarzynski_delta_f(works, spec.temperature);
  // Mean work is pure dissipation, strictly ≥ ΔF = 0 in expectation.
  EXPECT_TRUE(check(mean(works) > -0.05, "second law: <W> >= dF")) << mean(works);
  EXPECT_TRUE(near(delta_f, 0.0, 0.35, 0.0, "JE free-particle dF")) << delta_f;
}

TEST(PhysicsInvariants, JarzynskiHarmonicWellMatchesAnalyticDeltaF) {
  // Stiff-spring pull out of a harmonic well, attached at the exact well
  // centre: ΔF(λ) = ½·k_eff·λ² with k_eff = k_w·κ/(k_w+κ), exactly.
  const HarmonicPullSpec spec;
  const double analytic = harmonic_pull_delta_f(spec);
  const Axis axis{1};
  SCOPED_TRACE(axis.label());
  const SeedSweep sweep({.seeds = 12, .base_seed = 4004, .stream = axis.stream()});
  const std::vector<double> works = sweep.collect([&](std::uint64_t seed) {
    HarmonicPull pull = make_harmonic_pull(axis.run(seed), spec);
    return run_harmonic_pull_work(pull);
  });
  const double delta_f = jarzynski_delta_f(works, spec.temperature);
  // kT-scale gate: the JE estimator's finite-N bias is O(σ_W²/2NkT).
  EXPECT_TRUE(near(delta_f, analytic, 0.9, 0.0, "JE harmonic-well dF")) << delta_f;
  EXPECT_TRUE(check(mean(works) + 0.25 > delta_f, "second law: <W> >= dF"));
}

// --- deterministic invariants ----------------------------------------------

TEST(PhysicsInvariants, ForcesAreEnergyGradients) {
  // Central-difference check of F = −∇U on the bead chain, per axis.
  // Deterministic, and the sharpest possible detector of a force scaled
  // without its energy (landing at the scale of the bug, ~1e-2, against a
  // clean-code baseline of ~1e-8).
  for (const Axis& axis : axes()) {
    SCOPED_TRACE(axis.label());
    const double err = force_energy_fd_error(axis.run(909));
    EXPECT_TRUE(near(err, 0.0, 2e-5, 0.0, "finite-difference force error")) << err;
  }
}

TEST(PhysicsInvariants, NveEnergyConservation) {
  for (const Axis& axis : axes()) {
    SCOPED_TRACE(axis.label());
    const SeedSweep sweep({.seeds = 3, .base_seed = 5005, .stream = axis.stream()});
    for (const std::uint64_t seed : sweep.seeds()) {
      const double drift = nve_energy_drift(axis.run(seed));
      EXPECT_TRUE(near(drift, 0.0, 2e-3, 0.0, "NVE relative energy drift")) << drift;
    }
  }
}

}  // namespace
