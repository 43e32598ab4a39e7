// Force-kernel pipeline correctness: finite-difference force = −∇U checks
// run through the ENGINE (SystemState → ForceKernels → ForceWorkspace →
// deterministic reduction), not just through the free functions — so a bug
// in slicing, accumulation windows or reduction order cannot hide behind
// correct per-term math. Also pins the pipeline against an independent
// all-pairs reference, holds the scalar batch kernels to plain AoS
// reference loops bit for bit, and checks the per-contribution external
// energy breakdown.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "md/engine.hpp"
#include "md/forcefield.hpp"
#include "md/neighbor_list.hpp"
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

// --- scalar kernels against reference loops, bit for bit ---------------

/// 32 beads (one force slice) on an 8×2×2 lattice of 3.2 Å pitch with a
/// deterministic jitter, consecutive beads lattice-adjacent along a
/// serpentine: lattice neighbours sit inside the WCA shell and pairs six
/// pitches apart between the cutoff and cutoff + skin. `bonded` links the
/// serpentine with harmonic bonds (which also exclude those pairs);
/// otherwise the same pairs are excluded explicitly and no bonded force
/// dilutes the nonbonded bits.
Engine make_lattice(bool bonded, bool charged, double radius) {
  constexpr std::size_t kBeads = 32;
  constexpr double kPitch = 3.2;
  Topology topo;
  for (std::size_t i = 0; i < kBeads; ++i) {
    const double q = charged ? ((i % 2 == 0) ? -0.3 : 0.7) : 0.0;
    topo.add_particle({.mass = 100.0, .charge = q, .radius = radius, .name = "B"});
  }
  for (ParticleIndex i = 0; i + 1 < kBeads; ++i) {
    if (bonded) {
      topo.add_bond({i, i + 1, 5.0 + 0.25 * i, kPitch + 0.01 * (i % 5)});
    } else {
      topo.add_exclusion(i, i + 1);
    }
  }
  MdConfig cfg;
  cfg.dt = 0.005;
  cfg.seed = 11;
  cfg.simd = simd::Request::Scalar;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  std::vector<Vec3> xs(kBeads);
  for (std::size_t i = 0; i < kBeads; ++i) {
    const std::size_t ix = i / 4;
    std::size_t iy = (i / 2) % 2;
    const std::size_t iz = i % 2;
    if (ix % 2 == 1) iy = 1 - iy;  // serpentine: consecutive beads stay adjacent
    const double t = static_cast<double>(i);
    xs[i] = {kPitch * static_cast<double>(ix) + 0.3 * std::sin(1.7 * t),
             kPitch * static_cast<double>(iy) + 0.2 * std::cos(2.3 * t),
             kPitch * static_cast<double>(iz) + 0.25 * std::sin(0.9 * t + 1.0)};
  }
  engine.set_positions(xs);
  engine.initialize_velocities(300.0);
  return engine;
}

struct SliceReference {
  double bond = 0.0;
  double nonbonded = 0.0;
  std::vector<Vec3> forces;
};

/// The one-slice force pipeline as plain AoS loops: harmonic_bond over the
/// bond table, then the WCA + Debye–Hückel pair loop over the neighbour
/// list's candidates filtered by reach² (against the list's reference
/// positions) and the exclusions, with the Coulomb prefactor formed as
/// coulomb_pref·(qᵢ·qⱼ).
SliceReference reference_slice(const Engine& engine, const NonbondedParams& params) {
  const Topology& topo = engine.topology();
  const NeighborList& list = engine.neighbor_list();
  const auto xs = engine.positions();
  const auto q = engine.state().charge();
  const auto radius = engine.state().sigma();
  SliceReference ref;
  ref.forces.assign(xs.size(), Vec3{});
  auto& acc = ref.forces;

  for (const Bond& bond : topo.bonds()) {
    const EnergyForce ef = harmonic_bond(xs[bond.i], xs[bond.j], bond.k, bond.r0);
    ref.bond += ef.energy;
    acc[bond.i] += ef.force_on_i;
    acc[bond.j] += -ef.force_on_i;
  }

  const auto ref_xs = list.reference_positions();
  const double reach = list.cutoff() + list.skin();
  const double reach2 = reach * reach;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  list.for_each_candidate_pair(0, 1, [&](std::uint32_t a, std::uint32_t b) {
    if (distance2(ref_xs[a], ref_xs[b]) > reach2) return;
    if (topo.excluded(a, b)) return;
    pairs.emplace_back(a, b);
  });

  const double cutoff2 = params.cutoff * params.cutoff;
  const double epsilon = params.epsilon_wca;
  const double inv_lambda = 1.0 / params.debye_length;
  const double coulomb_pref = units::kCoulomb / params.dielectric;
  const double shift_per_pref = std::exp(-params.cutoff * inv_lambda) / params.cutoff;
  const double wca_lift = std::cbrt(2.0);
  for (const auto& [i, j] : pairs) {
    const Vec3 dr = xs[i] - xs[j];
    const double r2 = dr.norm2();
    if (r2 >= cutoff2 || r2 <= 0.0) continue;
    Vec3 f;
    const double sigma = radius[i] + radius[j];
    const double wca_rc2 = sigma * sigma * wca_lift;
    if (r2 < wca_rc2) {
      const double s2 = sigma * sigma / r2;
      const double s6 = s2 * s2 * s2;
      const double s12 = s6 * s6;
      ref.nonbonded += 4.0 * epsilon * (s12 - s6) + epsilon;
      f += dr * (24.0 * epsilon * (2.0 * s12 - s6) / r2);
    }
    const double qq = q[i] * q[j];
    if (qq != 0.0) {
      const double r = std::sqrt(r2);
      const double pref = coulomb_pref * qq;
      const double u_r = pref * std::exp(-r * inv_lambda) / r;
      ref.nonbonded += u_r - pref * shift_per_pref;
      f += dr * (u_r * (1.0 / r + inv_lambda) / r);
    }
    acc[i] += f;
    acc[j] -= f;
  }
  return ref;
}

/// Compare the engine's energies and forces against reference_slice at
/// the current configuration, bit for bit.
void expect_matches_reference_bitwise(Engine& engine) {
  const EnergyBreakdown e = engine.compute_energies();
  const SliceReference ref = reference_slice(engine, NonbondedParams{});
  EXPECT_EQ(e.bond, ref.bond);
  EXPECT_EQ(e.nonbonded, ref.nonbonded);
  const auto forces = engine.forces();
  ASSERT_EQ(forces.size(), ref.forces.size());
  for (std::size_t i = 0; i < forces.size(); ++i) {
    EXPECT_EQ(forces[i].x, ref.forces[i].x) << "particle " << i;
    EXPECT_EQ(forces[i].y, ref.forces[i].y) << "particle " << i;
    EXPECT_EQ(forces[i].z, ref.forces[i].z) << "particle " << i;
  }
}

TEST(KernelPipeline, ScalarKernelsMatchReferenceLoopsBitwise) {
  {
    SCOPED_TRACE("nonbonded: mixed -0.3/+0.7 charges, explicit exclusions");
    Engine engine = make_lattice(/*bonded=*/false, /*charged=*/true, /*radius=*/1.5);
    ASSERT_EQ(engine.simd_level(), simd::Level::Scalar);
    engine.compute_energies();
    const NeighborList& list = engine.neighbor_list();
    const auto xs = list.reference_positions();
    const double cutoff2 = list.cutoff() * list.cutoff();
    const double reach2 = (list.cutoff() + list.skin()) * (list.cutoff() + list.skin());
    std::size_t live = 0;
    std::size_t in_skin = 0;
    list.for_each_candidate_pair(0, 1, [&](std::uint32_t a, std::uint32_t b) {
      if (engine.topology().excluded(a, b)) return;
      const double r2 = distance2(xs[a], xs[b]);
      live += r2 < cutoff2 ? 1 : 0;
      in_skin += (r2 >= cutoff2 && r2 <= reach2) ? 1 : 0;
    });
    EXPECT_GT(live, 100u);
    EXPECT_GT(in_skin, 0u) << "no pair between the cutoff and cutoff + skin";
    // Ten configurations along a trajectory that stays inside the skin, so
    // the pair filter reads the list's reference positions while the
    // forces use the current ones.
    const std::size_t rebuilds = list.rebuild_count();
    for (int round = 0; round < 10; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      engine.step(2);
      expect_matches_reference_bitwise(engine);
    }
    EXPECT_EQ(list.rebuild_count(), rebuilds);
    EXPECT_NE(engine.compute_energies().nonbonded, 0.0);
  }
  {
    SCOPED_TRACE("bonds: neutral beads outside every WCA shell");
    Engine engine = make_lattice(/*bonded=*/true, /*charged=*/false, /*radius=*/0.5);
    for (int round = 0; round < 10; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      engine.step(5);
      expect_matches_reference_bitwise(engine);
    }
    EXPECT_EQ(engine.compute_energies().nonbonded, 0.0);
    EXPECT_NE(engine.compute_energies().bond, 0.0);
  }
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
  // The engine's view is the state's own row, not a copy, and the cached
  // parameters match the topology.
  const auto& state = engine.state();
  EXPECT_EQ(view.data(), state.positions().data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_DOUBLE_EQ(state.charge()[i], -1.0);
    EXPECT_DOUBLE_EQ(state.sigma()[i], 4.0);
    EXPECT_DOUBLE_EQ(state.inv_mass()[i], 1.0 / 300.0);
  }
}

}  // namespace
