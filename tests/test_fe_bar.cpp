// Bidirectional estimators: BAR and the Crooks crossing, validated on
// synthetic Crooks-consistent Gaussian ensembles and on live MD of the
// harmonic-well system (where ΔF is known in closed form).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fe/bar.hpp"
#include "fe/jarzynski.hpp"
#include "md/engine.hpp"
#include "smd/pulling.hpp"
#include "smd/restraint.hpp"
#include "spice/campaign.hpp"

namespace {

using namespace spice;
using namespace spice::fe;

/// Crooks-consistent Gaussian pair: forward W ~ N(ΔF + d, 2 d kT),
/// reverse W ~ N(−ΔF + d, 2 d kT) — this satisfies P_F(W)/P_R(−W) =
/// exp(β(W − ΔF)) exactly.
struct GaussianPair {
  std::vector<double> forward;
  std::vector<double> reverse;
};

GaussianPair crooks_gaussians(double delta_f, double dissipation, double temperature,
                              std::size_t n, std::uint64_t seed) {
  const double sigma = std::sqrt(2.0 * dissipation * units::kT(temperature));
  Rng rng(seed);
  GaussianPair out;
  out.forward.reserve(n);
  out.reverse.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.forward.push_back(rng.gaussian(delta_f + dissipation, sigma));
    out.reverse.push_back(rng.gaussian(-delta_f + dissipation, sigma));
  }
  return out;
}

class BarGaussianTest : public ::testing::TestWithParam<double> {};

TEST_P(BarGaussianTest, RecoversDeltaF) {
  const double dissipation = GetParam();
  const double delta_f = 3.5;
  const auto pair = crooks_gaussians(delta_f, dissipation, 300.0, 4000, 17);
  const BarResult bar = bennett_acceptance_ratio(pair.forward, pair.reverse, 300.0);
  EXPECT_TRUE(bar.converged);
  EXPECT_NEAR(bar.delta_f, delta_f, 0.15 + dissipation * 0.05);
}

INSTANTIATE_TEST_SUITE_P(DissipationSweep, BarGaussianTest,
                         ::testing::Values(0.2, 1.0, 3.0, 6.0));

TEST(Bar, BeatsJarzynskiAtHighDissipation) {
  // With strongly dissipative pulls, one-sided JE is badly biased while
  // BAR stays near the truth — the textbook motivation for bidirectional
  // sampling.
  const double delta_f = 2.0;
  const double dissipation = 5.0;
  const auto pair = crooks_gaussians(delta_f, dissipation, 300.0, 200, 23);

  const BarResult bar = bennett_acceptance_ratio(pair.forward, pair.reverse, 300.0);
  // One-sided JE from the forward works only.
  WorkEnsemble forward_only;
  forward_only.lambda = {0.0, 1.0};
  for (const double w : pair.forward) forward_only.work.push_back({0.0, w});
  const PmfEstimate je = estimate_pmf(forward_only, 300.0, Estimator::Exponential);

  EXPECT_LT(std::abs(bar.delta_f - delta_f), std::abs(je.phi[1] - delta_f));
  EXPECT_NEAR(bar.delta_f, delta_f, 0.6);
}

TEST(Bar, UnequalSampleSizes) {
  const auto pair = crooks_gaussians(1.5, 1.0, 300.0, 3000, 29);
  const std::vector<double> few(pair.reverse.begin(), pair.reverse.begin() + 300);
  const BarResult bar = bennett_acceptance_ratio(pair.forward, few, 300.0);
  EXPECT_TRUE(bar.converged);
  EXPECT_NEAR(bar.delta_f, 1.5, 0.4);
}

TEST(Bar, RejectsEmptyEnsembles) {
  const std::vector<double> some{1.0, 2.0};
  EXPECT_THROW((void)bennett_acceptance_ratio({}, some, 300.0), PreconditionError);
  EXPECT_THROW((void)bennett_acceptance_ratio(some, {}, 300.0), PreconditionError);
}

TEST(CrooksCrossing, FindsDeltaFForSymmetricGaussians) {
  const auto pair = crooks_gaussians(2.5, 1.5, 300.0, 6000, 31);
  EXPECT_NEAR(crooks_gaussian_crossing(pair.forward, pair.reverse), 2.5, 0.25);
}

TEST(WorkOverlap, DecreasesWithDissipation) {
  const auto close = crooks_gaussians(1.0, 0.5, 300.0, 2000, 37);
  const auto far = crooks_gaussians(1.0, 8.0, 300.0, 2000, 37);
  const double o_close = work_distribution_overlap(close.forward, close.reverse);
  const double o_far = work_distribution_overlap(far.forward, far.reverse);
  EXPECT_GT(o_close, o_far);
  EXPECT_GT(o_close, 0.8);
  EXPECT_LT(o_far, 0.6);
}

// --- live MD: bidirectional pulls on a harmonic well -------------------------------

TEST(BarLiveMd, HarmonicWellForwardReverseConsistency) {
  // Forward: pull from the well centre out to d; reverse: equilibrate at d
  // and pull back. ΔF = ½ k_eff d² exactly.
  const double k_well = 1.5;
  const double kappa_pn = 400.0;
  const double kappa_int = units::spring_pn_per_angstrom(kappa_pn);
  const double k_eff = k_well * kappa_int / (k_well + kappa_int);
  const double d = 2.5;
  const double expected = 0.5 * k_eff * d * d;

  std::vector<double> forward;
  std::vector<double> reverse;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    for (const bool is_reverse : {false, true}) {
      spice::md::Topology topo;
      topo.add_particle({.mass = 50.0, .charge = 0.0, .radius = 1.0});
      spice::md::MdConfig cfg;
      cfg.dt = 0.01;
      cfg.friction = 2.0;
      cfg.seed = 3100 + seed * 2 + (is_reverse ? 1 : 0);
      spice::md::Engine engine(std::move(topo), spice::md::NonbondedParams{}, cfg);
      engine.set_positions(std::vector<Vec3>{{0, 0, 0}});
      engine.initialize_velocities(300.0);

      auto well = std::make_shared<spice::smd::StaticRestraint>(
          std::vector<std::uint32_t>{0}, Vec3{0, 0, 1.0}, k_well, 0.0);
      well->attach_reference({0, 0, 0});
      engine.add_contribution(well);

      if (is_reverse) {
        // Move to the far end and equilibrate there first.
        auto hold = std::make_shared<spice::smd::StaticRestraint>(
            std::vector<std::uint32_t>{0}, Vec3{0, 0, 1.0}, kappa_int, d);
        hold->attach_reference({0, 0, 0});
        engine.add_contribution(hold);
        engine.step(3000);
        engine.remove_contribution(hold.get());
      }

      spice::smd::SmdParams params;
      params.spring_pn_per_angstrom = kappa_pn;
      params.velocity_angstrom_per_ns = 300.0;
      params.direction = is_reverse ? Vec3{0, 0, -1.0} : Vec3{0, 0, 1.0};
      params.smd_atoms = {0};
      params.hold_ps = 6.0;
      auto pull = std::make_shared<spice::smd::ConstantVelocityPull>(params);
      pull->attach(engine);
      engine.add_contribution(pull);
      const auto result = spice::smd::run_pull(engine, *pull, d, 10);
      (is_reverse ? reverse : forward).push_back(result.samples.back().work);
    }
  }

  const BarResult bar = bennett_acceptance_ratio(forward, reverse, 300.0);
  EXPECT_TRUE(bar.converged);
  EXPECT_NEAR(bar.delta_f, expected, 0.8);
  // Consistency: −⟨W_R⟩ ≤ ΔF ≤ ⟨W_F⟩ (second law in both directions).
  double wf = 0.0;
  for (const double w : forward) wf += w;
  wf /= forward.size();
  double wr = 0.0;
  for (const double w : reverse) wr += w;
  wr /= reverse.size();
  EXPECT_LE(bar.delta_f, wf + 0.3);
  EXPECT_GE(bar.delta_f, -wr - 0.3);
}

TEST(BarLiveMd, ReversePullOnPoreSystemRuns) {
  // Smoke coverage of the spice::core::run_reverse_pull path.
  core::SweepConfig config;
  config.pull_distance = 3.0;
  config.use_small_system();
  config.system.md.seed = 5;
  const pore::TranslocationSystem master =
      pore::build_translocation_system(config.system);
  const auto result = core::run_reverse_pull(master, config, 100.0, 200.0, 77);
  EXPECT_NEAR(result.pulled_distance, 3.0, 0.05);
  EXPECT_GT(result.samples.size(), 2u);
}

}  // namespace
