// Force-field correctness: every energy term must satisfy force = −∇U,
// verified by central finite differences, plus closed-form spot checks.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <numbers>

#include "common/units.hpp"
#include "common/vec3.hpp"
#include "md/forcefield.hpp"
#include "pore/pore_potential.hpp"

namespace {

using namespace spice;
using namespace spice::md;

/// Central finite-difference gradient of a scalar field at r.
Vec3 numerical_gradient(const std::function<double(const Vec3&)>& u, const Vec3& r,
                        double h = 1e-6) {
  Vec3 g;
  g.x = (u({r.x + h, r.y, r.z}) - u({r.x - h, r.y, r.z})) / (2 * h);
  g.y = (u({r.x, r.y + h, r.z}) - u({r.x, r.y - h, r.z})) / (2 * h);
  g.z = (u({r.x, r.y, r.z + h}) - u({r.x, r.y, r.z - h})) / (2 * h);
  return g;
}

void expect_vec_near(const Vec3& a, const Vec3& b, double tol) {
  EXPECT_NEAR(a.x, b.x, tol);
  EXPECT_NEAR(a.y, b.y, tol);
  EXPECT_NEAR(a.z, b.z, tol);
}

// --- harmonic bond ----------------------------------------------------------

TEST(HarmonicBond, EnergyAtRestLengthIsZero) {
  const auto ef = harmonic_bond({0, 0, 0}, {0, 0, 2.0}, 10.0, 2.0);
  EXPECT_DOUBLE_EQ(ef.energy, 0.0);
  EXPECT_NEAR(ef.force_on_i.norm(), 0.0, 1e-12);
}

TEST(HarmonicBond, QuadraticEnergy) {
  // U = k (r − r0)², k = 3, stretch = 0.5 → U = 0.75.
  const auto ef = harmonic_bond({0, 0, 0}, {0, 0, 2.5}, 3.0, 2.0);
  EXPECT_NEAR(ef.energy, 0.75, 1e-12);
}

TEST(HarmonicBond, ForceMatchesGradient) {
  const Vec3 rj{0.3, -0.7, 1.9};
  auto u = [&](const Vec3& ri) { return harmonic_bond(ri, rj, 7.5, 2.2).energy; };
  const Vec3 ri{1.4, 0.8, -0.6};
  expect_vec_near(harmonic_bond(ri, rj, 7.5, 2.2).force_on_i, -numerical_gradient(u, ri), 1e-5);
}

TEST(HarmonicBond, NewtonThirdLaw) {
  // Force on j is −force on i by construction; verify against gradient in rj.
  const Vec3 ri{1.4, 0.8, -0.6};
  auto u = [&](const Vec3& rj) { return harmonic_bond(ri, rj, 7.5, 2.2).energy; };
  const Vec3 rj{0.3, -0.7, 1.9};
  expect_vec_near(-harmonic_bond(ri, rj, 7.5, 2.2).force_on_i, -numerical_gradient(u, rj),
                  1e-5);
}

// --- harmonic angle ----------------------------------------------------------

TEST(HarmonicAngle, EnergyAtEquilibriumIsZero) {
  Vec3 fi, fj, fk;
  // Straight chain with θ0 = π.
  const double e = harmonic_angle({0, 0, 2}, {0, 0, 1}, {0, 0, 0}, 5.0, std::numbers::pi, fi, fj, fk);
  EXPECT_NEAR(e, 0.0, 1e-9);
}

TEST(HarmonicAngle, RightAngleEnergy) {
  Vec3 fi, fj, fk;
  // 90° with θ0 = π: U = k (π/2)².
  const double e = harmonic_angle({1, 0, 0}, {0, 0, 0}, {0, 1, 0}, 2.0, std::numbers::pi, fi, fj, fk);
  EXPECT_NEAR(e, 2.0 * (std::numbers::pi / 2) * (std::numbers::pi / 2), 1e-9);
}

TEST(HarmonicAngle, ForcesMatchGradients) {
  const Vec3 ri{1.2, 0.1, 0.3};
  const Vec3 rj{0.0, -0.2, 0.1};
  const Vec3 rk{-0.9, 1.1, -0.5};
  const double k_theta = 3.3;
  const double theta0 = 1.9;
  Vec3 fi, fj, fk;
  harmonic_angle(ri, rj, rk, k_theta, theta0, fi, fj, fk);

  auto ui = [&](const Vec3& r) {
    Vec3 a, b, c;
    return harmonic_angle(r, rj, rk, k_theta, theta0, a, b, c);
  };
  auto uj = [&](const Vec3& r) {
    Vec3 a, b, c;
    return harmonic_angle(ri, r, rk, k_theta, theta0, a, b, c);
  };
  auto uk = [&](const Vec3& r) {
    Vec3 a, b, c;
    return harmonic_angle(ri, rj, r, k_theta, theta0, a, b, c);
  };
  expect_vec_near(fi, -numerical_gradient(ui, ri), 1e-5);
  expect_vec_near(fj, -numerical_gradient(uj, rj), 1e-5);
  expect_vec_near(fk, -numerical_gradient(uk, rk), 1e-5);
}

TEST(HarmonicAngle, ForcesSumToZero) {
  Vec3 fi, fj, fk;
  harmonic_angle({1.2, 0.1, 0.3}, {0, -0.2, 0.1}, {-0.9, 1.1, -0.5}, 3.3, 1.9, fi, fj, fk);
  expect_vec_near(fi + fj + fk, Vec3{}, 1e-12);
}

// --- periodic dihedral ----------------------------------------------------------

struct DihedralCase {
  Vec3 ri, rj, rk, rl;
  double k_phi;
  int n;
  double delta;
};

class DihedralForceTest : public ::testing::TestWithParam<DihedralCase> {};

TEST_P(DihedralForceTest, ForcesMatchGradients) {
  const auto c = GetParam();
  auto energy_at = [&](const Vec3& a, const Vec3& b, const Vec3& cc, const Vec3& d) {
    Vec3 f1, f2, f3, f4;
    return periodic_dihedral(a, b, cc, d, c.k_phi, c.n, c.delta, f1, f2, f3, f4);
  };
  Vec3 fi, fj, fk, fl;
  periodic_dihedral(c.ri, c.rj, c.rk, c.rl, c.k_phi, c.n, c.delta, fi, fj, fk, fl);

  auto ui = [&](const Vec3& r) { return energy_at(r, c.rj, c.rk, c.rl); };
  auto uj = [&](const Vec3& r) { return energy_at(c.ri, r, c.rk, c.rl); };
  auto uk = [&](const Vec3& r) { return energy_at(c.ri, c.rj, r, c.rl); };
  auto ul = [&](const Vec3& r) { return energy_at(c.ri, c.rj, c.rk, r); };
  expect_vec_near(fi, -numerical_gradient(ui, c.ri), 2e-5);
  expect_vec_near(fj, -numerical_gradient(uj, c.rj), 2e-5);
  expect_vec_near(fk, -numerical_gradient(uk, c.rk), 2e-5);
  expect_vec_near(fl, -numerical_gradient(ul, c.rl), 2e-5);
  // Internal force: no net translation.
  expect_vec_near(fi + fj + fk + fl, Vec3{}, 1e-10);
  // No net torque about the origin either.
  expect_vec_near(cross(c.ri, fi) + cross(c.rj, fj) + cross(c.rk, fk) + cross(c.rl, fl),
                  Vec3{}, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DihedralForceTest,
    ::testing::Values(
        DihedralCase{{0, 1, 0}, {0, 0, 0}, {1.5, 0, 0}, {1.5, 0.8, 0.9}, 2.0, 1, 0.0},
        DihedralCase{{0.1, 1.2, -0.3}, {0, 0, 0}, {1.4, 0.2, 0.1}, {2.0, -0.9, 1.1},
                     1.5, 2, 0.7},
        DihedralCase{{-0.5, 0.9, 0.2}, {0.1, -0.1, 0.3}, {1.2, 0.3, -0.2},
                     {1.8, 1.4, 0.5}, 3.0, 3, 2.1},
        DihedralCase{{0, 1, 0}, {0, 0, 0}, {1, 0, 0}, {1, -1, 0.01}, 0.8, 1, 1.0}));

TEST(PeriodicDihedral, EnergyAtKnownAngles) {
  // Planar cis arrangement: φ = 0 → U = k (1 + cos(−δ)).
  Vec3 fi, fj, fk, fl;
  double phi = 99.0;
  const double e = periodic_dihedral({0, 1, 0}, {0, 0, 0}, {1, 0, 0}, {1, 1, 0}, 2.0, 1,
                                     0.0, fi, fj, fk, fl, &phi);
  EXPECT_NEAR(std::abs(phi), 0.0, 1e-9);  // cis
  EXPECT_NEAR(e, 4.0, 1e-9);              // k (1 + cos 0) = 2k
  // Trans arrangement: φ = π → U = k (1 + cos π) = 0.
  const double e2 = periodic_dihedral({0, 1, 0}, {0, 0, 0}, {1, 0, 0}, {1, -1, 0}, 2.0, 1,
                                      0.0, fi, fj, fk, fl, &phi);
  EXPECT_NEAR(std::abs(phi), std::numbers::pi, 1e-9);
  EXPECT_NEAR(e2, 0.0, 1e-9);
}

TEST(PeriodicDihedral, CollinearGeometryIsSafe) {
  Vec3 fi, fj, fk, fl;
  const double e = periodic_dihedral({0, 0, 0}, {0, 0, 1}, {0, 0, 2}, {0, 0, 3}, 2.0, 1,
                                     0.0, fi, fj, fk, fl);
  EXPECT_DOUBLE_EQ(e, 0.0);
  EXPECT_DOUBLE_EQ(fi.norm(), 0.0);
}

// --- WCA ----------------------------------------------------------------------

TEST(Wca, ZeroBeyondCutoff) {
  const double sigma = 2.0;
  const double rc = sigma * std::pow(2.0, 1.0 / 6.0);
  const auto ef = wca_pair({0, 0, 0}, {0, 0, rc + 1e-9}, sigma, 1.0);
  EXPECT_DOUBLE_EQ(ef.energy, 0.0);
  EXPECT_DOUBLE_EQ(ef.force_on_i.norm(), 0.0);
}

TEST(Wca, ContinuousAtCutoff) {
  const double sigma = 2.0;
  const double rc = sigma * std::pow(2.0, 1.0 / 6.0);
  const auto just_inside = wca_pair({0, 0, 0}, {0, 0, rc - 1e-7}, sigma, 1.0);
  EXPECT_NEAR(just_inside.energy, 0.0, 1e-5);
}

TEST(Wca, PurelyRepulsive) {
  const double sigma = 2.0;
  for (double r = 0.5; r < 2.2; r += 0.1) {
    const auto ef = wca_pair({0, 0, 0}, {0, 0, r}, sigma, 1.0);
    EXPECT_GE(ef.energy, -1e-12) << "r=" << r;
    // Force on i points away from j (−z here).
    if (ef.energy > 1e-9) {
      EXPECT_LT(ef.force_on_i.z, 0.0) << "r=" << r;
    }
  }
}

TEST(Wca, ForceMatchesGradient) {
  const Vec3 rj{0.1, 0.2, 0.3};
  auto u = [&](const Vec3& ri) { return wca_pair(ri, rj, 2.0, 0.7).energy; };
  const Vec3 ri{1.1, 1.3, 1.2};  // within the WCA range
  expect_vec_near(wca_pair(ri, rj, 2.0, 0.7).force_on_i, -numerical_gradient(u, ri), 1e-4);
}

// --- Debye–Hückel --------------------------------------------------------------

TEST(DebyeHuckel, ZeroForNeutralParticles) {
  NonbondedParams p;
  const auto ef = debye_huckel_pair({0, 0, 0}, {0, 0, 5}, 0.0, -1.0, p);
  EXPECT_DOUBLE_EQ(ef.energy, 0.0);
}

TEST(DebyeHuckel, RepulsiveForLikeCharges) {
  NonbondedParams p;
  const auto ef = debye_huckel_pair({0, 0, 0}, {0, 0, 5}, -1.0, -1.0, p);
  EXPECT_GT(ef.energy, 0.0);
  EXPECT_LT(ef.force_on_i.z, 0.0);  // pushed away from j at +z
}

TEST(DebyeHuckel, EnergyShiftedToZeroAtCutoff) {
  NonbondedParams p;
  const auto ef = debye_huckel_pair({0, 0, 0}, {0, 0, p.cutoff - 1e-9}, -1.0, -1.0, p);
  EXPECT_NEAR(ef.energy, 0.0, 1e-9);
  const auto beyond = debye_huckel_pair({0, 0, 0}, {0, 0, p.cutoff + 0.1}, -1.0, -1.0, p);
  EXPECT_DOUBLE_EQ(beyond.energy, 0.0);
}

TEST(DebyeHuckel, ScreeningShortensRange) {
  NonbondedParams weak = {.debye_length = 100.0, .cutoff = 50.0};
  NonbondedParams strong = {.debye_length = 3.0, .cutoff = 50.0};
  const double r = 10.0;
  const auto u_weak = debye_huckel_pair({0, 0, 0}, {0, 0, r}, -1.0, -1.0, weak);
  const auto u_strong = debye_huckel_pair({0, 0, 0}, {0, 0, r}, -1.0, -1.0, strong);
  EXPECT_GT(u_weak.energy, u_strong.energy);
}

TEST(DebyeHuckel, ForceMatchesGradient) {
  NonbondedParams p;
  const Vec3 rj{0.5, -0.5, 0.0};
  auto u = [&](const Vec3& ri) { return debye_huckel_pair(ri, rj, -1.0, -1.0, p).energy; };
  const Vec3 ri{4.0, 3.0, 2.0};
  expect_vec_near(debye_huckel_pair(ri, rj, -1.0, -1.0, p).force_on_i,
                  -numerical_gradient(u, ri), 1e-6);
}

TEST(DebyeHuckel, MatchesCoulombLimitAtShortRange) {
  // For r ≪ λ_D the screened potential approaches k q₁q₂/(ε r).
  NonbondedParams p = {.debye_length = 1e6, .cutoff = 1e7};
  const double r = 5.0;
  const auto ef = debye_huckel_pair({0, 0, 0}, {0, 0, r}, -1.0, -1.0, p);
  const double coulomb = units::kCoulomb / (p.dielectric * r);
  EXPECT_NEAR(ef.energy, coulomb, coulomb * 1e-4);
}

// --- combined nonbonded ----------------------------------------------------------

TEST(NonbondedPair, IsSumOfTerms) {
  NonbondedParams p;
  const Vec3 ri{0, 0, 0};
  const Vec3 rj{0, 0, 4.0};
  const auto total = nonbonded_pair(ri, rj, -1.0, -1.0, 6.0, p);
  const auto wca = wca_pair(ri, rj, 6.0, p.epsilon_wca);
  const auto dh = debye_huckel_pair(ri, rj, -1.0, -1.0, p);
  EXPECT_NEAR(total.energy, wca.energy + dh.energy, 1e-12);
  expect_vec_near(total.force_on_i, wca.force_on_i + dh.force_on_i, 1e-12);
}

// --- pore potential (parameterized finite-difference sweep) ----------------------

struct PorePoint {
  double x, y, z, charge;
};

class PoreForceTest : public ::testing::TestWithParam<PorePoint> {};

TEST_P(PoreForceTest, ForceMatchesGradient) {
  const auto p = GetParam();
  const auto pore = spice::pore::make_hemolysin_pore();
  auto u = [&](const Vec3& r) {
    Vec3 f;
    return pore->particle_energy_force(r, p.charge, f);
  };
  const Vec3 r{p.x, p.y, p.z};
  Vec3 f;
  (void)pore->particle_energy_force(r, p.charge, f);
  expect_vec_near(f, -numerical_gradient(u, r, 1e-5), 2e-4);
}

INSTANTIATE_TEST_SUITE_P(
    AcrossTheChannel, PoreForceTest,
    ::testing::Values(PorePoint{0.0, 0.0, 30.0, -1.0},   // vestibule, on axis
                      PorePoint{15.0, 8.0, 30.0, -1.0},  // vestibule, near wall
                      PorePoint{3.0, 2.0, 0.0, -1.0},    // constriction
                      PorePoint{8.0, 0.0, 0.0, -1.0},    // inside constriction wall
                      PorePoint{0.0, 4.0, -25.0, -1.0},  // mid-barrel
                      PorePoint{0.0, 12.0, -25.0, -1.0}, // penetrating barrel wall
                      PorePoint{2.0, 1.0, -48.0, -1.0},  // barrel exit / envelope edge
                      PorePoint{0.0, 0.0, -60.0, -1.0},  // trans mouth
                      PorePoint{25.0, 0.0, 60.0, 0.0},   // neutral in cis bulk
                      PorePoint{1.0, -1.0, -10.0, -1.0}  // corrugated region
                      ));

TEST(PorePotential, WallConfinesLaterally) {
  const auto pore = spice::pore::make_hemolysin_pore();
  Vec3 f_in, f_out;
  const double u_in = pore->particle_energy_force({0, 0, -25}, 0.0, f_in);
  const double u_out = pore->particle_energy_force({20, 0, -25}, 0.0, f_out);
  EXPECT_GT(u_out, u_in + 100.0);  // membrane blocks off-lumen crossing
  EXPECT_LT(f_out.x, 0.0);         // pushed back toward the axis
}

TEST(PorePotential, FieldDrivesNegativeChargeTransward) {
  // Mid-membrane, on axis: the −z electric force on a negative charge.
  spice::pore::PoreParams params;
  params.site_amplitude = 0.0;  // isolate the field term
  params.affinity = 0.0;
  const auto pore = spice::pore::make_hemolysin_pore(params);
  Vec3 f;
  (void)pore->particle_energy_force({0, 0, -25}, -1.0, f);
  EXPECT_LT(f.z, 0.0);
  // A positive charge feels the opposite force.
  Vec3 f_pos;
  (void)pore->particle_energy_force({0, 0, -25}, +1.0, f_pos);
  EXPECT_GT(f_pos.z, 0.0);
  EXPECT_NEAR(f.z, -f_pos.z, 1e-12);
}

TEST(PorePotential, FieldEnergyDropEqualsQV) {
  spice::pore::PoreParams params;
  params.site_amplitude = 0.0;
  params.affinity = 0.0;
  const auto pore = spice::pore::make_hemolysin_pore(params);
  Vec3 f;
  const double u_cis = pore->particle_energy_force({0, 0, 20}, -1.0, f);
  const double u_trans = pore->particle_energy_force({0, 0, -55}, -1.0, f);
  // Crossing gains e·V ≈ 2.77 kcal/mol for the default 120 mV.
  EXPECT_NEAR(u_trans - u_cis, -units::voltage_mv_to_kcal_per_e(120.0), 1e-9);
}

TEST(PorePotential, CorrugationConfinedToBarrel) {
  spice::pore::PoreParams params;
  params.affinity = 0.0;
  params.voltage_mv = 0.0;
  const auto pore = spice::pore::make_hemolysin_pore(params);
  Vec3 f;
  // Outside the membrane slab the corrugation term vanishes.
  EXPECT_NEAR(pore->particle_energy_force({0, 0, 20}, 0.0, f), 0.0, 1e-12);
  EXPECT_NEAR(pore->particle_energy_force({0, 0, -60}, 0.0, f), 0.0, 1e-12);
  // Mid-barrel it oscillates with the site period.
  const double u1 = pore->particle_energy_force({0, 0, -25.0}, 0.0, f);
  const double u2 = pore->particle_energy_force({0, 0, -25.0 + params.site_period / 2}, 0.0, f);
  EXPECT_GT(std::abs(u1 - u2), 0.5);
}

}  // namespace
