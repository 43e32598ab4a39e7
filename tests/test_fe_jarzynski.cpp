// Jarzynski estimator correctness against closed-form results, plus the
// work-ensemble gridding, sub-trajectory and PMF utilities.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "common/units.hpp"
#include "fe/error_analysis.hpp"
#include "fe/jarzynski.hpp"
#include "fe/pmf.hpp"
#include "md/engine.hpp"
#include "smd/pulling.hpp"
#include "smd/restraint.hpp"

namespace {

using namespace spice;
using namespace spice::fe;

/// Build a synthetic pull whose work curve is W(λ) = a·λ + noise-free.
spice::smd::PullResult synthetic_pull(double lambda_max, std::size_t points, double slope,
                                      double force_level = 0.0) {
  spice::smd::PullResult pull;
  for (std::size_t i = 0; i < points; ++i) {
    spice::smd::PullSample s;
    s.lambda = lambda_max * static_cast<double>(i) / static_cast<double>(points - 1);
    s.time = s.lambda;  // unit pull velocity
    s.work = slope * s.lambda;
    s.force = force_level != 0.0 ? force_level : slope;  // constant force
    pull.samples.push_back(s);
  }
  pull.pulled_distance = lambda_max;
  pull.steps = points;
  return pull;
}

// --- gridding -----------------------------------------------------------------

TEST(GridWorkEnsemble, InterpolatesLinearly) {
  std::vector<spice::smd::PullResult> pulls{synthetic_pull(10.0, 11, 2.0)};
  const WorkEnsemble e = grid_work_ensemble(pulls, 10.0, 21);
  ASSERT_EQ(e.grid_points(), 21u);
  ASSERT_EQ(e.trajectories(), 1u);
  for (std::size_t g = 0; g < e.grid_points(); ++g) {
    EXPECT_NEAR(e.work[0][g], 2.0 * e.lambda[g], 1e-12);
  }
}

TEST(GridWorkEnsemble, RejectsShortPulls) {
  std::vector<spice::smd::PullResult> pulls{synthetic_pull(5.0, 6, 1.0)};
  EXPECT_THROW(grid_work_ensemble(pulls, 10.0, 11), PreconditionError);
}

TEST(GridWorkEnsemble, SampledForceReintegrationMatchesForConstantForce) {
  // With constant force F, trapezoid integration is exact: W = F·v·t = F·λ.
  std::vector<spice::smd::PullResult> pulls{synthetic_pull(10.0, 11, 3.0)};
  const WorkEnsemble exact = grid_work_ensemble(pulls, 10.0, 11, WorkSource::Accumulated);
  const WorkEnsemble sampled = grid_work_ensemble(pulls, 10.0, 11, WorkSource::SampledForce);
  for (std::size_t g = 0; g < exact.grid_points(); ++g) {
    EXPECT_NEAR(exact.work[0][g], sampled.work[0][g], 1e-9) << g;
  }
}

TEST(GridWorkEnsemble, SampledForceIgnoresHoldPlateau) {
  // A pull with a settle phase: the anchor sits at λ = 0 for a while (the
  // spring still reads a force) and then advances at unit velocity. Work
  // only accrues while λ moves — W(λ) = F·λ for constant force — so the
  // plateau must contribute nothing. Integrating F·v̄·dt instead (with v̄
  // averaged over the WHOLE trajectory, hold included) both counts the
  // plateau and mis-scales the moving phase.
  const double force = 2.0;
  spice::smd::PullResult pull;
  for (int i = 0; i <= 2; ++i) {  // hold: t = 0, 1, 2 at λ = 0
    spice::smd::PullSample s;
    s.time = i;
    s.lambda = 0.0;
    s.force = force;
    pull.samples.push_back(s);
  }
  for (int i = 1; i <= 4; ++i) {  // pull: λ = 1..4 at t = 3..6
    spice::smd::PullSample s;
    s.time = 2.0 + i;
    s.lambda = i;
    s.force = force;
    pull.samples.push_back(s);
  }
  pull.pulled_distance = 4.0;
  pull.steps = pull.samples.size();

  std::vector<spice::smd::PullResult> pulls{pull};
  const WorkEnsemble e = grid_work_ensemble(pulls, 4.0, 9, WorkSource::SampledForce);
  for (std::size_t g = 0; g < e.grid_points(); ++g) {
    EXPECT_NEAR(e.work[0][g], force * e.lambda[g], 1e-12) << "lambda=" << e.lambda[g];
  }
}

TEST(ReintegrateFromForce, RewritesWorkColumnOverTheAnchorPath) {
  // Direct contract of the now-public primitive: the output work column is
  // the λ-trapezoid of the recorded forces, the first sample is re-zeroed,
  // and hold-plateau samples (dλ = 0) contribute nothing no matter what
  // transient force they recorded.
  spice::smd::PullResult pull;
  const double lambdas[] = {0.0, 0.0, 1.0, 3.0};
  const double forces[] = {7.0, -4.0, 2.0, 4.0};
  for (int i = 0; i < 4; ++i) {
    spice::smd::PullSample s;
    s.time = i;
    s.lambda = lambdas[i];
    s.force = forces[i];
    s.work = 999.0;  // stale garbage: must be fully rewritten
    pull.samples.push_back(s);
  }

  const spice::smd::PullResult out = reintegrate_from_force(pull);
  ASSERT_EQ(out.samples.size(), 4u);
  EXPECT_DOUBLE_EQ(out.samples[0].work, 0.0);
  EXPECT_DOUBLE_EQ(out.samples[1].work, 0.0);  // plateau: ½(7−4)·0
  EXPECT_DOUBLE_EQ(out.samples[2].work, 0.5 * (-4.0 + 2.0) * 1.0);
  EXPECT_DOUBLE_EQ(out.samples[3].work, out.samples[2].work + 0.5 * (2.0 + 4.0) * 2.0);
  // Everything but the work column passes through untouched.
  EXPECT_DOUBLE_EQ(out.samples[3].lambda, 3.0);
  EXPECT_DOUBLE_EQ(out.samples[3].force, 4.0);
}

TEST(ReintegrateFromForce, EmptyAndSingleSampleAreNoOps) {
  const spice::smd::PullResult empty_out = reintegrate_from_force({});
  EXPECT_TRUE(empty_out.samples.empty());

  spice::smd::PullResult one;
  one.samples.push_back({.time = 0.0, .lambda = 0.0, .force = 5.0, .work = 3.0});
  const spice::smd::PullResult out = reintegrate_from_force(one);
  ASSERT_EQ(out.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(out.samples[0].work, 0.0);  // the λ = 0 origin is re-zeroed
}

// --- estimators on synthetic Gaussian work ----------------------------------------

class GaussianWorkTest : public ::testing::TestWithParam<double> {};

TEST_P(GaussianWorkTest, ExponentialEstimatorRecoversGaussianLimit) {
  // For W ~ N(μ, σ²): −kT ln⟨e^{−βW}⟩ = μ − βσ²/2 exactly.
  const double sigma = GetParam();
  const double mu = 5.0;
  const double temperature = 300.0;
  const double kt = units::kT(temperature);

  Rng rng(1234);
  WorkEnsemble e;
  e.lambda = {0.0, 1.0};
  for (int t = 0; t < 60000; ++t) {
    e.work.push_back({0.0, rng.gaussian(mu, sigma)});
  }
  const PmfEstimate est = estimate_pmf(e, temperature, Estimator::Exponential);
  const double expected = mu - sigma * sigma / (2.0 * kt);
  EXPECT_NEAR(est.phi[1], expected, 0.05 + sigma * sigma / kt * 0.05);
  EXPECT_DOUBLE_EQ(est.phi[0], 0.0);
}

INSTANTIATE_TEST_SUITE_P(SigmaSweep, GaussianWorkTest, ::testing::Values(0.2, 0.5, 0.8));

TEST(Estimators, CumulantsMatchDefinitions) {
  WorkEnsemble e;
  e.lambda = {0.0, 1.0};
  e.work = {{0.0, 1.0}, {0.0, 2.0}, {0.0, 3.0}, {0.0, 6.0}};
  const double temperature = 300.0;
  const PmfEstimate first = estimate_pmf(e, temperature, Estimator::FirstCumulant);
  EXPECT_DOUBLE_EQ(first.phi[1], 3.0);
  const PmfEstimate second = estimate_pmf(e, temperature, Estimator::SecondCumulant);
  const double var = variance(std::vector<double>{1.0, 2.0, 3.0, 6.0});
  EXPECT_NEAR(second.phi[1], 3.0 - var / (2.0 * units::kT(temperature)), 1e-12);
}

TEST(Estimators, ExponentialIsBelowMeanWork) {
  // Jensen: −kT ln⟨e^{−βW}⟩ ≤ ⟨W⟩, strictly when W fluctuates.
  WorkEnsemble e;
  e.lambda = {0.0, 1.0};
  e.work = {{0.0, 1.0}, {0.0, 5.0}};
  const PmfEstimate exp_est = estimate_pmf(e, 300.0, Estimator::Exponential);
  const PmfEstimate mean_est = estimate_pmf(e, 300.0, Estimator::FirstCumulant);
  EXPECT_LT(exp_est.phi[1], mean_est.phi[1]);
}

TEST(Estimators, DissipatedWorkNonNegativeAndGrowsWithSpread) {
  Rng rng(7);
  auto make = [&](double sigma) {
    WorkEnsemble e;
    e.lambda = {0.0, 1.0};
    for (int t = 0; t < 5000; ++t) e.work.push_back({0.0, rng.gaussian(3.0, sigma)});
    return e;
  };
  const double d_small = mean_dissipated_work(make(0.3), 300.0);
  const double d_large = mean_dissipated_work(make(0.9), 300.0);
  EXPECT_GE(d_small, 0.0);
  EXPECT_GT(d_large, d_small);
}

// --- stiff-spring correction ---------------------------------------------------------

TEST(StiffSpring, CorrectsQuadraticProfile) {
  // F(λ) = ½ k λ² → Φ(λ) = F(λ) − (kλ)²/(2κ).
  const double k = 2.0;
  const double kappa = 10.0;
  PmfEstimate f;
  for (int i = 0; i <= 20; ++i) {
    const double x = 0.5 * i;
    f.lambda.push_back(x);
    f.phi.push_back(0.5 * k * x * x);
  }
  const PmfEstimate corrected = stiff_spring_correction(f, kappa);
  // Interior points (central differences are exact for quadratics).
  for (std::size_t g = 1; g + 1 < f.lambda.size(); ++g) {
    const double x = f.lambda[g];
    EXPECT_NEAR(corrected.phi[g], 0.5 * k * x * x - (k * x) * (k * x) / (2 * kappa), 1e-9);
  }
}

TEST(StiffSpring, InfiniteSpringIsIdentity) {
  PmfEstimate f;
  f.lambda = {0.0, 1.0, 2.0};
  f.phi = {0.0, 1.0, 4.0};
  const PmfEstimate corrected = stiff_spring_correction(f, 1e12);
  for (std::size_t g = 0; g < f.phi.size(); ++g) {
    EXPECT_NEAR(corrected.phi[g], f.phi[g], 1e-9);
  }
}

// --- error analysis --------------------------------------------------------------------

TEST(ErrorAnalysis, BootstrapShrinksWithSampleSize) {
  Rng rng(11);
  auto ensemble_of = [&](std::size_t n) {
    WorkEnsemble e;
    e.lambda = {0.0, 1.0};
    for (std::size_t t = 0; t < n; ++t) e.work.push_back({0.0, rng.gaussian(2.0, 0.5)});
    return e;
  };
  const auto small = bootstrap_stat_error(ensemble_of(16), 300.0, Estimator::Exponential, 200, 1);
  const auto large = bootstrap_stat_error(ensemble_of(256), 300.0, Estimator::Exponential, 200, 1);
  EXPECT_GT(small[1], large[1]);
  // ~√16 ratio, loosely.
  EXPECT_NEAR(small[1] / large[1], 4.0, 2.5);
}

TEST(ErrorAnalysis, ConfidenceBandBracketsTheEstimate) {
  Rng rng(47);
  WorkEnsemble e;
  e.lambda = {0.0, 1.0, 2.0};
  for (int t = 0; t < 64; ++t) {
    const double w1 = rng.gaussian(1.0, 0.4);
    e.work.push_back({0.0, w1, w1 + rng.gaussian(1.0, 0.4)});
  }
  const PmfEstimate est = estimate_pmf(e, 300.0, Estimator::Exponential);
  const ConfidenceBand band =
      bootstrap_confidence_band(e, 300.0, Estimator::Exponential, 400, 7, 0.1);
  ASSERT_EQ(band.lambda.size(), 3u);
  for (std::size_t g = 0; g < 3; ++g) {
    EXPECT_LE(band.lower[g], est.phi[g] + 1e-9) << g;
    EXPECT_GE(band.upper[g], est.phi[g] - 1e-9) << g;
    EXPECT_LE(band.lower[g], band.upper[g]);
  }
  // λ = 0 is the anchor: zero width there.
  EXPECT_NEAR(band.upper[0] - band.lower[0], 0.0, 1e-12);
}

TEST(ErrorAnalysis, ConfidenceBandWidthTracksAlpha) {
  Rng rng(53);
  WorkEnsemble e;
  e.lambda = {0.0, 1.0};
  for (int t = 0; t < 64; ++t) e.work.push_back({0.0, rng.gaussian(2.0, 0.8)});
  const ConfidenceBand wide =
      bootstrap_confidence_band(e, 300.0, Estimator::Exponential, 400, 7, 0.02);
  const ConfidenceBand narrow =
      bootstrap_confidence_band(e, 300.0, Estimator::Exponential, 400, 7, 0.5);
  EXPECT_GT(wide.upper[1] - wide.lower[1], narrow.upper[1] - narrow.lower[1]);
}

TEST(ErrorAnalysis, CostNormalization) {
  // A protocol 8× costlier per sample gets √8 larger normalized error.
  EXPECT_NEAR(cost_normalized_error(1.0, 8.0), std::sqrt(8.0), 1e-12);
  EXPECT_THROW((void)cost_normalized_error(1.0, 0.0), PreconditionError);
}

TEST(ErrorAnalysis, SystematicErrorAgainstReference) {
  PmfEstimate est;
  est.lambda = {0.0, 1.0, 2.0};
  est.phi = {0.0, 1.5, 2.0};
  PmfEstimate ref;
  ref.lambda = {0.0, 2.0};
  ref.phi = {0.0, 2.0};  // linear reference
  // Deviations: 0, |1.5−1.0| = 0.5, 0 → mean 1/6? No: mean(0, .5, 0) = 1/6… = 0.1667
  EXPECT_NEAR(systematic_error(est, ref), 0.5 / 3.0, 1e-12);
}

TEST(ErrorAnalysis, CombinedScoreAndBest) {
  spice::fe::ParameterScore a{.kappa_pn = 10, .velocity_ns = 12.5, .samples = 4,
                              .sigma_stat = 3.0, .sigma_sys = 4.0};
  spice::fe::ParameterScore b{.kappa_pn = 100, .velocity_ns = 12.5, .samples = 4,
                              .sigma_stat = 1.0, .sigma_sys = 1.0};
  EXPECT_DOUBLE_EQ(a.combined(), 5.0);
  // Copy: best_score returns a reference into its argument, and the
  // braced-init temporary vector dies at the end of the statement.
  const spice::fe::ParameterScore best = best_score({a, b});
  EXPECT_DOUBLE_EQ(best.kappa_pn, 100);
}

// --- PMF utilities -----------------------------------------------------------------------

TEST(PmfUtils, InterpolationAndShift) {
  PmfEstimate pmf;
  pmf.lambda = {0.0, 2.0, 4.0};
  pmf.phi = {1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(pmf_at(pmf, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(pmf_at(pmf, -5.0), 1.0);   // clamped
  EXPECT_DOUBLE_EQ(pmf_at(pmf, 10.0), 2.0);   // clamped
  shift_pmf(pmf, 2.0);
  EXPECT_DOUBLE_EQ(pmf.phi[1], 0.0);
  EXPECT_DOUBLE_EQ(pmf.phi[0], -2.0);
}

TEST(PmfUtils, StitchSegmentsContinuously) {
  PmfEstimate a;
  a.lambda = {0.0, 1.0, 2.0};
  a.phi = {0.0, 1.0, 3.0};
  PmfEstimate b;
  b.lambda = {0.0, 1.0, 2.0};
  b.phi = {10.0, 10.5, 12.0};  // arbitrary offset — stitching removes it
  const PmfEstimate joined = stitch_segments(std::vector<PmfEstimate>{a, b});
  ASSERT_EQ(joined.lambda.size(), 5u);
  EXPECT_DOUBLE_EQ(joined.lambda.back(), 4.0);
  EXPECT_DOUBLE_EQ(joined.phi[2], 3.0);
  EXPECT_DOUBLE_EQ(joined.phi[3], 3.5);  // 3 + (10.5 − 10)
  EXPECT_DOUBLE_EQ(joined.phi[4], 5.0);  // 3 + (12 − 10)
}

TEST(PmfUtils, SubtrajectorySplitRezeroesWork) {
  std::vector<spice::smd::PullResult> pulls{synthetic_pull(10.0, 101, 2.0)};
  const auto segments = split_subtrajectories(pulls, 5.0, 2, 6);
  ASSERT_EQ(segments.size(), 2u);
  for (const auto& seg : segments) {
    EXPECT_DOUBLE_EQ(seg.work[0].front(), 0.0);
    EXPECT_NEAR(seg.work[0].back(), 2.0 * 5.0, 1e-9);
    EXPECT_DOUBLE_EQ(seg.lambda.front(), 0.0);
    EXPECT_NEAR(seg.lambda.back(), 5.0, 1e-9);
  }
}

TEST(PmfUtils, SubtrajectoryStitchingRecoversFullProfile) {
  // JE per 5 Å segment, stitched, equals the full-trajectory estimate for
  // a deterministic work curve.
  std::vector<spice::smd::PullResult> pulls{synthetic_pull(10.0, 101, 1.5)};
  const auto segments = split_subtrajectories(pulls, 5.0, 2, 11);
  std::vector<PmfEstimate> parts;
  for (const auto& seg : segments) parts.push_back(estimate_pmf(seg, 300.0));
  const PmfEstimate joined = stitch_segments(parts);
  const PmfEstimate direct =
      estimate_pmf(grid_work_ensemble(pulls, 10.0, 21), 300.0, Estimator::Exponential);
  ASSERT_EQ(joined.lambda.size(), direct.lambda.size());
  for (std::size_t g = 0; g < joined.lambda.size(); ++g) {
    EXPECT_NEAR(joined.phi[g], direct.phi[g], 1e-9) << g;
  }
}

// --- live MD validation: moving trap on a free particle has ΔF = 0 ------------------------

TEST(JarzynskiLiveMd, FreeParticleTrapPullHasZeroFreeEnergyProfile) {
  // The canonical analytic check: translating a harmonic trap through a
  // free particle's configuration space changes no free energy, so the JE
  // estimate must vanish (within sampling error) at every λ.
  std::vector<spice::smd::PullResult> pulls;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    spice::md::Topology topo;
    topo.add_particle({.mass = 50.0, .charge = 0.0, .radius = 1.0});
    spice::md::MdConfig cfg;
    cfg.dt = 0.01;
    cfg.friction = 2.0;
    cfg.seed = 900 + seed;
    spice::md::Engine engine(std::move(topo), spice::md::NonbondedParams{}, cfg);
    engine.set_positions(std::vector<Vec3>{{0, 0, 0}});
    engine.initialize_velocities(300.0);
    engine.step(200);  // decorrelate from the lattice start

    spice::smd::SmdParams params;
    params.spring_pn_per_angstrom = 200.0;
    params.velocity_angstrom_per_ns = 500.0;  // still slow vs relaxation
    params.smd_atoms = {0};
    params.hold_ps = 5.0;  // equilibrate in the trap before moving it
    auto pull = std::make_shared<spice::smd::ConstantVelocityPull>(params);
    pull->attach(engine);
    engine.add_contribution(pull);
    pulls.push_back(spice::smd::run_pull(engine, *pull, 4.0, 5));
  }
  const WorkEnsemble e = grid_work_ensemble(pulls, 4.0, 9);
  const PmfEstimate est = estimate_pmf(e, 300.0, Estimator::Exponential);
  for (std::size_t g = 0; g < est.phi.size(); ++g) {
    EXPECT_NEAR(est.phi[g], 0.0, 0.6) << "lambda=" << est.lambda[g];
  }
}

TEST(JarzynskiLiveMd, HarmonicWellPullMatchesAnalyticProfile) {
  // Particle bound in a well of stiffness k_w, pulled by a spring κ_p:
  // the combined free energy is F(λ) = ½ (k_w κ_p/(k_w+κ_p)) λ².
  const double k_well = 2.0;   // internal units
  const double kappa_pn = 300.0;
  const double kappa_internal = units::spring_pn_per_angstrom(kappa_pn);
  const double k_eff = k_well * kappa_internal / (k_well + kappa_internal);

  std::vector<spice::smd::PullResult> pulls;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    spice::md::Topology topo;
    topo.add_particle({.mass = 50.0, .charge = 0.0, .radius = 1.0});
    spice::md::MdConfig cfg;
    cfg.dt = 0.01;
    cfg.friction = 2.0;
    cfg.seed = 1700 + seed;
    spice::md::Engine engine(std::move(topo), spice::md::NonbondedParams{}, cfg);
    engine.set_positions(std::vector<Vec3>{{0, 0, 0}});
    engine.initialize_velocities(300.0);

    auto well = std::make_shared<spice::smd::StaticRestraint>(
        std::vector<std::uint32_t>{0}, Vec3{0, 0, -1.0}, k_well, 0.0);
    well->attach_reference({0, 0, 0});
    engine.add_contribution(well);

    // Attach the pull spring at the well centre (ξ and λ share the well's
    // origin) and equilibrate the COMBINED system during the hold phase —
    // the λ = 0 equilibrium ensemble Jarzynski's identity assumes.
    spice::smd::SmdParams params;
    params.spring_pn_per_angstrom = kappa_pn;
    params.velocity_angstrom_per_ns = 250.0;
    params.smd_atoms = {0};
    params.hold_ps = 8.0;
    auto pull = std::make_shared<spice::smd::ConstantVelocityPull>(params);
    pull->attach(engine);
    engine.add_contribution(pull);
    pulls.push_back(spice::smd::run_pull(engine, *pull, 3.0, 5));
  }
  const WorkEnsemble e = grid_work_ensemble(pulls, 3.0, 7);
  const PmfEstimate est = estimate_pmf(e, 300.0, Estimator::Exponential);
  for (std::size_t g = 0; g < est.phi.size(); ++g) {
    const double lambda = est.lambda[g];
    // The pull coordinate ξ starts at the thermal position, not exactly the
    // well centre; allow kT-scale tolerance.
    EXPECT_NEAR(est.phi[g], 0.5 * k_eff * lambda * lambda, 0.9) << "lambda=" << lambda;
  }
}

TEST(JarzynskiLiveMd, SampledForceWithHoldMatchesAnalyticWork) {
  // Same harmonic-well protocol as above but the work is REINTEGRATED from
  // the recorded spring forces. The 8 ps hold phase means the λ-based
  // trapezoid must reproduce the analytic profile; a time-based F·v̄·dt
  // integral would scale the pull-phase work by t_pull/(t_hold + t_pull)
  // and accumulate spurious settle-phase work.
  const double k_well = 2.0;
  const double kappa_pn = 300.0;
  const double kappa_internal = units::spring_pn_per_angstrom(kappa_pn);
  const double k_eff = k_well * kappa_internal / (k_well + kappa_internal);

  std::vector<spice::smd::PullResult> pulls;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    spice::md::Topology topo;
    topo.add_particle({.mass = 50.0, .charge = 0.0, .radius = 1.0});
    spice::md::MdConfig cfg;
    cfg.dt = 0.01;
    cfg.friction = 2.0;
    cfg.seed = 2300 + seed;
    spice::md::Engine engine(std::move(topo), spice::md::NonbondedParams{}, cfg);
    engine.set_positions(std::vector<Vec3>{{0, 0, 0}});
    engine.initialize_velocities(300.0);

    auto well = std::make_shared<spice::smd::StaticRestraint>(
        std::vector<std::uint32_t>{0}, Vec3{0, 0, -1.0}, k_well, 0.0);
    well->attach_reference({0, 0, 0});
    engine.add_contribution(well);

    spice::smd::SmdParams params;
    params.spring_pn_per_angstrom = kappa_pn;
    params.velocity_angstrom_per_ns = 250.0;
    params.smd_atoms = {0};
    params.hold_ps = 8.0;
    auto pull = std::make_shared<spice::smd::ConstantVelocityPull>(params);
    pull->attach(engine);
    engine.add_contribution(pull);
    pulls.push_back(spice::smd::run_pull(engine, *pull, 3.0, 5));
  }
  const WorkEnsemble e = grid_work_ensemble(pulls, 3.0, 7, WorkSource::SampledForce);
  const PmfEstimate est = estimate_pmf(e, 300.0, Estimator::Exponential);
  for (std::size_t g = 0; g < est.phi.size(); ++g) {
    const double lambda = est.lambda[g];
    EXPECT_NEAR(est.phi[g], 0.5 * k_eff * lambda * lambda, 0.9) << "lambda=" << lambda;
  }
}

}  // namespace
