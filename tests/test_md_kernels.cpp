// Force-kernel pipeline correctness: finite-difference force = −∇U checks
// run through the ENGINE (SystemState → ForceKernels → ForceWorkspace →
// deterministic reduction), not just through the free functions — so a bug
// in slicing, accumulation windows or reduction order cannot hide behind
// correct per-term math. Also pins the pipeline against an independent
// all-pairs reference and checks the per-contribution external energy
// breakdown.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "md/engine.hpp"
#include "md/forcefield.hpp"
#include "md/topology.hpp"
#include "pore/pore_potential.hpp"
#include "smd/position_restraint.hpp"
#include "smd/restraint.hpp"

namespace {

using namespace spice;
using namespace spice::md;

/// Charged chain with all bonded term types, used for every pipeline test.
Topology make_chain_topology(int beads) {
  Topology topo;
  for (int i = 0; i < beads; ++i) {
    topo.add_particle({.mass = 300.0, .charge = -1.0, .radius = 4.0, .name = "NT"});
  }
  for (ParticleIndex i = 0; i + 1 < static_cast<ParticleIndex>(beads); ++i) {
    topo.add_bond({i, i + 1, 10.0, 7.0});
  }
  for (ParticleIndex i = 0; i + 2 < static_cast<ParticleIndex>(beads); ++i) {
    topo.add_angle({i, i + 1, i + 2, 5.0, std::numbers::pi});
  }
  for (ParticleIndex i = 0; i + 3 < static_cast<ParticleIndex>(beads); ++i) {
    topo.add_dihedral({i, i + 1, i + 2, i + 3, 0.5, 1, 0.0});
  }
  return topo;
}

/// Helix with `rise` Å per bead along z. At the default 7 Å every
/// non-excluded pair is beyond the nonbonded cutoff; a tighter rise brings
/// i, i+4 and i, i+5 inside it.
std::vector<Vec3> helix_positions(int beads, double rise = 7.0) {
  std::vector<Vec3> xs(beads);
  for (int i = 0; i < beads; ++i) {
    const double phi = 0.4 * i;
    xs[i] = {3.0 * std::cos(phi), 3.0 * std::sin(phi), rise * i - 40.0};
  }
  return xs;
}

Engine make_engine(int beads, std::size_t threads = 1,
                   simd::Request simd = simd::Request::Auto) {
  MdConfig cfg;
  cfg.dt = 0.01;
  cfg.threads = threads;
  cfg.seed = 42;
  cfg.simd = simd;
  Engine engine(make_chain_topology(beads), NonbondedParams{}, cfg);
  engine.set_positions(helix_positions(beads));
  return engine;
}

/// Registers the pore, a COM restraint and a position restraint; returns
/// them in registration order.
std::vector<std::shared_ptr<ForceContribution>> attach_externals(Engine& engine) {
  auto restraint = std::make_shared<smd::StaticRestraint>(
      std::vector<std::uint32_t>{0, 1, 2, 3}, Vec3{0, 0, 1}, /*kappa=*/2.0, /*center=*/1.0);
  restraint->attach(engine);
  auto posres = std::make_shared<smd::PositionRestraint>(
      std::vector<std::uint32_t>{8, 9}, /*stiffness=*/3.0, Vec3{1.0, 1.0, 0.0});
  posres->attach(engine);
  const std::vector<std::shared_ptr<ForceContribution>> externals{pore::make_hemolysin_pore(),
                                                                  restraint, posres};
  for (const auto& c : externals) engine.add_contribution(c);
  return externals;
}

struct ReferenceForces {
  EnergyBreakdown energies;
  std::vector<Vec3> forces;
};

/// Independent oracle for the kernel pipeline: serial bonded terms, an
/// all-pairs nonbonded sum (no neighbour list) filtered by the topology's
/// exclusions, and each contribution's begin_evaluation plus one
/// full-range accumulate_range.
ReferenceForces all_pairs_reference(
    const Engine& engine, const NonbondedParams& nonbonded,
    const std::vector<std::shared_ptr<ForceContribution>>& externals) {
  const Topology& topo = engine.topology();
  const auto xs = engine.positions();
  ReferenceForces ref;
  ref.forces.assign(xs.size(), Vec3{});
  auto& f = ref.forces;
  auto& e = ref.energies;
  for (const auto& b : topo.bonds()) {
    const EnergyForce ef = harmonic_bond(xs[b.i], xs[b.j], b.k, b.r0);
    e.bond += ef.energy;
    f[b.i] += ef.force_on_i;
    f[b.j] -= ef.force_on_i;
  }
  for (const auto& a : topo.angles()) {
    Vec3 fi;
    Vec3 fj;
    Vec3 fk;
    e.angle += harmonic_angle(xs[a.i], xs[a.j], xs[a.k], a.k_theta, a.theta0, fi, fj, fk);
    f[a.i] += fi;
    f[a.j] += fj;
    f[a.k] += fk;
  }
  for (const auto& d : topo.dihedrals()) {
    Vec3 fi;
    Vec3 fj;
    Vec3 fk;
    Vec3 fl;
    e.dihedral += periodic_dihedral(xs[d.i], xs[d.j], xs[d.k], xs[d.l], d.k_phi,
                                    d.multiplicity, d.delta, fi, fj, fk, fl);
    f[d.i] += fi;
    f[d.j] += fj;
    f[d.k] += fk;
    f[d.l] += fl;
  }
  const auto& particles = topo.particles();
  for (ParticleIndex i = 0; i < xs.size(); ++i) {
    for (ParticleIndex j = i + 1; j < xs.size(); ++j) {
      if (topo.excluded(i, j)) continue;
      const EnergyForce ef =
          nonbonded_pair(xs[i], xs[j], particles[i].charge, particles[j].charge,
                         particles[i].radius + particles[j].radius, nonbonded);
      e.nonbonded += ef.energy;
      f[i] += ef.force_on_i;
      f[j] -= ef.force_on_i;
    }
  }
  for (const auto& c : externals) {
    e.external += c->begin_evaluation(xs, topo, engine.time());
    e.external += c->accumulate_range(xs, topo, engine.time(), 0, xs.size(), f);
  }
  return ref;
}

/// Central-difference −dU/dx_i,axis through Engine::compute_energies().
double finite_difference_force(Engine& engine, std::vector<Vec3> xs, std::size_t i, int axis,
                               double h) {
  auto shift = [&](double sign) {
    std::vector<Vec3> moved = xs;
    double* component = axis == 0 ? &moved[i].x : axis == 1 ? &moved[i].y : &moved[i].z;
    *component += sign * h;
    engine.set_positions(moved);
    return engine.compute_energies().total();
  };
  const double e_plus = shift(+1.0);
  const double e_minus = shift(-1.0);
  engine.set_positions(xs);  // leave the engine where we found it
  return -(e_plus - e_minus) / (2.0 * h);
}

TEST(KernelPipeline, ForceMatchesGradientThroughWorkspace) {
  constexpr int kBeads = 16;
  Engine engine = make_engine(kBeads);
  attach_externals(engine);

  const std::vector<Vec3> xs = helix_positions(kBeads);
  engine.set_positions(xs);
  engine.compute_energies();
  const std::vector<Vec3> forces(engine.forces().begin(), engine.forces().end());

  const double h = 1e-5;
  for (const std::size_t i : {std::size_t{0}, std::size_t{5}, std::size_t{9}, std::size_t{15}}) {
    for (int axis = 0; axis < 3; ++axis) {
      const double fd = finite_difference_force(engine, xs, i, axis, h);
      const double analytic =
          axis == 0 ? forces[i].x : axis == 1 ? forces[i].y : forces[i].z;
      EXPECT_NEAR(analytic, fd, 1e-4 + 1e-6 * std::abs(analytic))
          << "particle " << i << " axis " << axis;
    }
  }
}

TEST(KernelPipeline, DihedralGradientNearCollinearGeometry) {
  // Dihedral forces diverge as the inner three sites approach collinearity
  // (|r_ij × r_kj| → 0); the Blondel–Karplus formulation must stay finite
  // and consistent with the energy through the kernel path in the
  // near-collinear regime.
  Topology topo;
  for (int i = 0; i < 4; ++i) topo.add_particle({.mass = 12.0, .radius = 1.0});
  topo.add_bond({0, 1, 10.0, 3.0});
  topo.add_bond({1, 2, 10.0, 3.0});
  topo.add_bond({2, 3, 10.0, 3.0});
  topo.add_dihedral({0, 1, 2, 3, 1.0, 2, 0.4});
  MdConfig cfg;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);

  const std::vector<Vec3> xs{{1e-3, 0.0, 0.0},
                             {0.0, 0.0, 3.0},
                             {0.0, 2e-3, 6.0},
                             {-1e-3, 1e-3, 9.0}};
  engine.set_positions(xs);
  engine.compute_energies();
  const std::vector<Vec3> forces(engine.forces().begin(), engine.forces().end());

  const double h = 1e-7;
  for (std::size_t i = 0; i < 4; ++i) {
    for (int axis = 0; axis < 3; ++axis) {
      const double fd = finite_difference_force(engine, xs, i, axis, h);
      const double analytic =
          axis == 0 ? forces[i].x : axis == 1 ? forces[i].y : forces[i].z;
      EXPECT_NEAR(analytic, fd, 1e-3 + 1e-3 * std::abs(analytic))
          << "particle " << i << " axis " << axis;
    }
  }
}

/// Builds an engine on a helix of the given rise and checks it against
/// the all-pairs oracle: bonded and external energies to 1e-9, nonbonded
/// energy and every force component to `nonbonded_tol` relative to
/// max(1, |value|). Returns the oracle's nonbonded energy.
double expect_matches_all_pairs(std::size_t threads, simd::Request simd, double rise,
                              double nonbonded_tol) {
  // 128 beads run S(128) = 4 slices; 127 bonds give every slice 31-32, so
  // the 4-wide vector bond body runs, not just its tail.
  constexpr int kBeads = 128;
  Engine engine = make_engine(kBeads, threads, simd);
  engine.set_positions(helix_positions(kBeads, rise));
  const auto externals = attach_externals(engine);

  const auto& ek = engine.compute_energies();
  const ReferenceForces ref = all_pairs_reference(engine, NonbondedParams{}, externals);
  const EnergyBreakdown& er = ref.energies;
  auto tol = [&](double v) { return nonbonded_tol * std::max(1.0, std::abs(v)); };
  EXPECT_NEAR(ek.bond, er.bond, 1e-9);
  EXPECT_NEAR(ek.angle, er.angle, 1e-9);
  EXPECT_NEAR(ek.dihedral, er.dihedral, 1e-9);
  EXPECT_NEAR(ek.nonbonded, er.nonbonded, tol(er.nonbonded));
  EXPECT_NEAR(ek.external, er.external, 1e-9);

  const auto fk = engine.forces();
  for (std::size_t i = 0; i < fk.size(); ++i) {
    EXPECT_NEAR(fk[i].x, ref.forces[i].x, tol(ref.forces[i].x)) << i;
    EXPECT_NEAR(fk[i].y, ref.forces[i].y, tol(ref.forces[i].y)) << i;
    EXPECT_NEAR(fk[i].z, ref.forces[i].z, tol(ref.forces[i].z)) << i;
  }
  return er.nonbonded;
}

TEST(KernelPipeline, MatchesAllPairsReference) {
  constexpr double kTightRise = 3.5;  // brings i, i+4 and i, i+5 inside the cutoff
  for (const std::size_t threads : {1, 2}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    // Scalar dispatch is all-double, like the oracle: 1e-9 everywhere.
    EXPECT_NE(expect_matches_all_pairs(threads, simd::Request::Scalar, kTightRise, 1e-9), 0.0);
    // Native dispatch on the default helix, where no non-excluded pair is
    // inside the cutoff: the fp64 vector bonded kernels are held to 1e-9.
    EXPECT_EQ(expect_matches_all_pairs(threads, simd::Request::Auto, 7.0, 1e-9), 0.0);
    // Native dispatch with nonbonded pairs: the vector nonbonded kernel
    // runs its pair math in fp32, so nonbonded energy and forces get the
    // fp32 bound the SIMD-vs-scalar ensemble test uses.
    EXPECT_NE(expect_matches_all_pairs(threads, simd::Request::Auto, kTightRise, 1e-5), 0.0);
  }
}

TEST(KernelPipeline, ExternalEnergyBreakdownPerContribution) {
  constexpr int kBeads = 16;
  Engine engine = make_engine(kBeads);
  attach_externals(engine);
  const auto& e = engine.compute_energies();

  ASSERT_EQ(e.external_terms.size(), 3u);
  EXPECT_EQ(e.external_terms[0].name, "pore");
  EXPECT_EQ(e.external_terms[1].name, "restraint");
  EXPECT_EQ(e.external_terms[2].name, "posres");
  double sum = 0.0;
  for (const auto& term : e.external_terms) sum += term.energy;
  EXPECT_DOUBLE_EQ(e.external, sum);
  // The COM restraint is displaced from its center, so its share must be
  // strictly positive (ensures the breakdown carries real values).
  EXPECT_GT(e.external_terms[1].energy, 0.0);
}

TEST(KernelPipeline, SystemStateRoundTripsAoSViews) {
  constexpr int kBeads = 8;
  Engine engine = make_engine(kBeads);
  const std::vector<Vec3> xs = helix_positions(kBeads);
  const auto view = engine.positions();
  ASSERT_EQ(view.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_DOUBLE_EQ(view[i].x, xs[i].x);
    EXPECT_DOUBLE_EQ(view[i].y, xs[i].y);
    EXPECT_DOUBLE_EQ(view[i].z, xs[i].z);
  }
  // SoA columns mirror the AoS view, and cached parameters match topology.
  const auto& state = engine.state();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_DOUBLE_EQ(state.x()[i], xs[i].x);
    EXPECT_DOUBLE_EQ(state.charge()[i], -1.0);
    EXPECT_DOUBLE_EQ(state.sigma()[i], 4.0);
    EXPECT_DOUBLE_EQ(state.inv_mass()[i], 1.0 / 300.0);
  }
}

}  // namespace
