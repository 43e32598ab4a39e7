// MD engine correctness: topology bookkeeping, neighbour lists vs O(N²),
// NVE energy conservation, Langevin equipartition, determinism across
// thread counts, checkpoint/restore and clone semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numbers>
#include <set>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "md/engine.hpp"
#include "md/neighbor_list.hpp"
#include "md/observables.hpp"
#include "md/topology.hpp"
#include "pore/dna.hpp"
#include "pore/system.hpp"

namespace {

using namespace spice;
using namespace spice::md;

// --- topology ---------------------------------------------------------------

TEST(Topology, ParticleAndBondBookkeeping) {
  Topology topo;
  const auto a = topo.add_particle({.mass = 1.0, .charge = -1.0, .radius = 1.0, .name = "A"});
  const auto b = topo.add_particle({.mass = 2.0, .charge = 1.0, .radius = 1.0, .name = "B"});
  const auto c = topo.add_particle({.mass = 3.0, .charge = 0.0, .radius = 1.0, .name = "C"});
  topo.add_bond({a, b, 10.0, 1.5});
  topo.add_angle({a, b, c, 2.0, std::numbers::pi});
  EXPECT_EQ(topo.particle_count(), 3u);
  EXPECT_EQ(topo.bonds().size(), 1u);
  EXPECT_EQ(topo.angles().size(), 1u);
  EXPECT_DOUBLE_EQ(topo.total_mass(), 6.0);
  EXPECT_DOUBLE_EQ(topo.total_charge(), 0.0);
}

TEST(Topology, BondsAndAnglesCreateExclusions) {
  Topology topo;
  const auto a = topo.add_particle({});
  const auto b = topo.add_particle({});
  const auto c = topo.add_particle({});
  const auto d = topo.add_particle({});
  topo.add_bond({a, b, 1.0, 1.0});
  topo.add_angle({a, b, c, 1.0, std::numbers::pi});
  EXPECT_TRUE(topo.excluded(a, b));   // 1-2
  EXPECT_TRUE(topo.excluded(b, a));   // symmetric
  EXPECT_TRUE(topo.excluded(a, c));   // 1-3 via angle
  EXPECT_FALSE(topo.excluded(b, c));  // not excluded (no bond b-c added)
  EXPECT_FALSE(topo.excluded(a, d));
}

TEST(Topology, RejectsInvalidInput) {
  Topology topo;
  const auto a = topo.add_particle({});
  EXPECT_THROW(topo.add_bond({a, a, 1.0, 1.0}), PreconditionError);
  EXPECT_THROW(topo.add_bond({a, 5, 1.0, 1.0}), PreconditionError);
  EXPECT_THROW(topo.add_particle({.mass = -1.0}), PreconditionError);
}

// --- neighbour list ------------------------------------------------------------

TEST(NeighborList, MatchesBruteForce) {
  Rng rng(5);
  Topology topo;
  std::vector<Vec3> xs;
  for (int i = 0; i < 120; ++i) {
    topo.add_particle({.mass = 1.0, .radius = 1.0});
    xs.push_back({rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20)});
  }
  // A few exclusions to exercise that path.
  topo.add_exclusion(0, 1);
  topo.add_exclusion(5, 100);

  const double cutoff = 6.0;
  NeighborList list(cutoff, 1.5);
  list.rebuild(xs, topo);

  std::set<std::pair<std::uint32_t, std::uint32_t>> brute;
  const double reach2 = (cutoff + 1.5) * (cutoff + 1.5);
  for (std::uint32_t i = 0; i < xs.size(); ++i) {
    for (std::uint32_t j = i + 1; j < xs.size(); ++j) {
      if (distance2(xs[i], xs[j]) <= reach2 && !topo.excluded(i, j)) brute.insert({i, j});
    }
  }
  ASSERT_FALSE(brute.empty());
  // The candidate stream the nonbonded kernel consumes: over all slices,
  // after the same reach + exclusion filter, every pair exactly once.
  for (const std::size_t slices : {1u, 3u, 16u}) {
    SCOPED_TRACE("slices " + std::to_string(slices));
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> seen;
    for (std::size_t s = 0; s < slices; ++s) {
      list.for_each_candidate_pair(s, slices, [&](std::uint32_t a, std::uint32_t b) {
        if (distance2(xs[a], xs[b]) > reach2 || topo.excluded(a, b)) return;
        ++seen[{std::min(a, b), std::max(a, b)}];
      });
    }
    std::set<std::pair<std::uint32_t, std::uint32_t>> fast;
    for (const auto& [pair, count] : seen) {
      EXPECT_EQ(count, 1) << pair.first << "-" << pair.second;
      fast.insert(pair);
    }
    EXPECT_EQ(fast, brute);
  }
}

TEST(NeighborList, RebuildsOnlyAfterSkinCrossing) {
  Topology topo;
  topo.add_particle({});
  topo.add_particle({});
  std::vector<Vec3> xs{{0, 0, 0}, {0, 0, 3.0}};
  NeighborList list(5.0, 2.0);
  list.rebuild(xs, topo);
  EXPECT_EQ(list.rebuild_count(), 1u);
  xs[1].z += 0.5;  // < skin/2
  EXPECT_FALSE(list.maybe_rebuild(xs, topo));
  xs[1].z += 0.6;  // cumulative 1.1 > skin/2 = 1.0
  EXPECT_TRUE(list.maybe_rebuild(xs, topo));
  EXPECT_EQ(list.rebuild_count(), 2u);
}

// --- engine fundamentals ----------------------------------------------------------

/// Tiny charged trimer used by several tests.
Engine make_trimer(IntegratorKind integrator, std::size_t threads = 1,
                   std::uint64_t seed = 99) {
  Topology topo;
  for (int i = 0; i < 3; ++i) {
    topo.add_particle({.mass = 12.0, .charge = -1.0, .radius = 1.5, .name = "X"});
  }
  topo.add_bond({0, 1, 15.0, 3.0});
  topo.add_bond({1, 2, 15.0, 3.0});
  topo.add_angle({0, 1, 2, 3.0, std::numbers::pi});
  MdConfig cfg;
  cfg.dt = 0.002;
  cfg.integrator = integrator;
  cfg.threads = threads;
  cfg.seed = seed;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  engine.set_positions(std::vector<Vec3>{{0, 0, 0}, {0.2, 0.1, 3.0}, {-0.1, 0.3, 6.1}});
  engine.initialize_velocities(300.0);
  return engine;
}

TEST(Engine, NveConservesEnergy) {
  Engine engine = make_trimer(IntegratorKind::VelocityVerlet);
  const double e0 = engine.compute_energies().total() + engine.kinetic_energy();
  engine.step(2000);
  const double e1 = engine.last_energies().total() + engine.kinetic_energy();
  // Drift budget: small fraction of kT over 4 ps.
  EXPECT_NEAR(e1, e0, 0.05);
}

TEST(Engine, NveEnergyDriftShrinksWithTimestep) {
  auto drift_for = [](double dt) {
    Topology topo;
    topo.add_particle({.mass = 12.0, .charge = 0.0, .radius = 1.5});
    topo.add_particle({.mass = 12.0, .charge = 0.0, .radius = 1.5});
    topo.add_bond({0, 1, 30.0, 3.0});
    MdConfig cfg;
    cfg.dt = dt;
    cfg.integrator = IntegratorKind::VelocityVerlet;
    Engine engine(std::move(topo), NonbondedParams{}, cfg);
    engine.set_positions(std::vector<Vec3>{{0, 0, 0}, {0, 0, 3.4}});
    const double e0 = engine.compute_energies().total() + engine.kinetic_energy();
    engine.step(static_cast<std::size_t>(4.0 / dt));  // 4 ps either way
    return std::abs(engine.last_energies().total() + engine.kinetic_energy() - e0);
  };
  // Velocity Verlet is 2nd order: 4× smaller dt → ≳4× smaller drift
  // (allow slack for the oscillatory error envelope).
  EXPECT_LT(drift_for(0.001), drift_for(0.004));
}

TEST(Engine, LangevinEquipartition) {
  // 9 degrees of freedom with a ~1/γ velocity correlation time: the mean
  // needs a long window before its standard error is small. γ = 5/ps and
  // 30k samples put the SEM near 8 K.
  Topology topo;
  for (int i = 0; i < 3; ++i) {
    topo.add_particle({.mass = 12.0, .charge = -1.0, .radius = 1.5, .name = "X"});
  }
  topo.add_bond({0, 1, 15.0, 3.0});
  topo.add_bond({1, 2, 15.0, 3.0});
  topo.add_angle({0, 1, 2, 3.0, std::numbers::pi});
  MdConfig cfg;
  cfg.dt = 0.002;
  cfg.friction = 5.0;
  cfg.seed = 99;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  engine.set_positions(std::vector<Vec3>{{0, 0, 0}, {0.2, 0.1, 3.0}, {-0.1, 0.3, 6.1}});
  engine.initialize_velocities(300.0);
  engine.step(2000);  // equilibrate
  RunningStats temp;
  for (int s = 0; s < 30000; ++s) {
    engine.step();
    temp.add(engine.instantaneous_temperature());
  }
  EXPECT_NEAR(temp.mean(), 300.0, 25.0);
}

TEST(Engine, MaxwellBoltzmannInitialization) {
  Topology topo;
  for (int i = 0; i < 500; ++i) topo.add_particle({.mass = 20.0, .radius = 1.0});
  MdConfig cfg;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  std::vector<Vec3> xs(500);
  Rng rng(1);
  for (auto& x : xs) x = {rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50)};
  engine.set_positions(xs);
  engine.initialize_velocities(300.0);
  EXPECT_NEAR(engine.instantaneous_temperature(), 300.0, 20.0);
}

TEST(Engine, DeterministicAcrossThreadCounts) {
  Engine one = make_trimer(IntegratorKind::Langevin, 1);
  Engine four = make_trimer(IntegratorKind::Langevin, 4);
  one.step(500);
  four.step(500);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(one.positions()[i].x, four.positions()[i].x) << i;
    EXPECT_DOUBLE_EQ(one.positions()[i].y, four.positions()[i].y) << i;
    EXPECT_DOUBLE_EQ(one.positions()[i].z, four.positions()[i].z) << i;
  }
}

TEST(Engine, DeterministicAcrossRuns) {
  Engine a = make_trimer(IntegratorKind::Langevin);
  Engine b = make_trimer(IntegratorKind::Langevin);
  a.step(300);
  b.step(300);
  EXPECT_EQ(a.positions()[2].z, b.positions()[2].z);
}

TEST(Engine, DifferentSeedsDiverge) {
  Engine a = make_trimer(IntegratorKind::Langevin, 1, 1);
  Engine b = make_trimer(IntegratorKind::Langevin, 1, 2);
  a.step(300);
  b.step(300);
  EXPECT_NE(a.positions()[2].z, b.positions()[2].z);
}

TEST(Engine, TimeAndStepAccounting) {
  Engine engine = make_trimer(IntegratorKind::Langevin);
  EXPECT_DOUBLE_EQ(engine.time(), 0.0);
  engine.step(250);
  EXPECT_EQ(engine.step_count(), 250u);
  EXPECT_DOUBLE_EQ(engine.time(), 250 * 0.002);
}

TEST(Engine, EnergyBreakdownSumsToTotal) {
  Engine engine = make_trimer(IntegratorKind::Langevin);
  const auto& e = engine.compute_energies();
  EXPECT_DOUBLE_EQ(e.total(), e.bond + e.angle + e.dihedral + e.nonbonded + e.external);
}

TEST(Engine, InternalForcesSumToZero) {
  // Newton's third law across the whole force array: with only internal
  // terms (bonds, angles, nonbonded — no external potential) the total
  // force vanishes.
  Rng rng(61);
  Topology topo;
  for (int i = 0; i < 30; ++i) {
    topo.add_particle({.mass = 10.0, .charge = (i % 2 == 0) ? -1.0 : 1.0, .radius = 1.5});
  }
  for (ParticleIndex i = 0; i + 1 < 30; ++i) topo.add_bond({i, i + 1, 10.0, 3.0});
  for (ParticleIndex i = 0; i + 2 < 30; ++i) {
    topo.add_angle({i, i + 1, i + 2, 2.0, std::numbers::pi});
  }
  for (ParticleIndex i = 0; i + 3 < 30; ++i) {
    topo.add_dihedral({i, i + 1, i + 2, i + 3, 0.5, 2, 0.3});
  }
  MdConfig cfg;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  std::vector<Vec3> xs(30);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 3.0 * static_cast<double>(i)};
  }
  engine.set_positions(xs);
  engine.compute_energies();
  Vec3 total;
  for (const auto& f : engine.forces()) total += f;
  EXPECT_NEAR(total.norm(), 0.0, 1e-9);
}

TEST(Engine, NveConservesMomentum) {
  // No external potential and no thermostat → total momentum is constant.
  Topology topo;
  for (int i = 0; i < 5; ++i) topo.add_particle({.mass = 7.0, .radius = 1.2});
  for (ParticleIndex i = 0; i + 1 < 5; ++i) topo.add_bond({i, i + 1, 12.0, 2.5});
  MdConfig cfg;
  cfg.dt = 0.002;
  cfg.integrator = IntegratorKind::VelocityVerlet;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  std::vector<Vec3> xs(5);
  for (int i = 0; i < 5; ++i) xs[i] = {0.1 * i, -0.05 * i, 2.5 * i};
  engine.set_positions(xs);
  engine.initialize_velocities(300.0);

  auto momentum = [&engine] {
    Vec3 p;
    const auto& particles = engine.topology().particles();
    for (std::size_t i = 0; i < particles.size(); ++i) {
      p += engine.velocities()[i] * particles[i].mass;
    }
    return p;
  };
  const Vec3 p0 = momentum();
  engine.step(1500);
  const Vec3 p1 = momentum();
  EXPECT_NEAR((p1 - p0).norm(), 0.0, 1e-9 * (1.0 + p0.norm()));
}

/// Determinism must hold for BOTH integrators across thread counts.
class IntegratorDeterminismTest : public ::testing::TestWithParam<IntegratorKind> {};

TEST_P(IntegratorDeterminismTest, ThreadCountInvariance) {
  auto build = [&](std::size_t threads) {
    spice::pore::TranslocationConfig config;
    config.dna.nucleotides = 10;
    config.md.integrator = GetParam();
    config.md.threads = threads;
    config.md.seed = 1234;
    config.equilibration_steps = 0;
    return spice::pore::build_translocation_system(config);
  };
  auto a = build(1);
  auto b = build(4);
  a.engine.step(400);
  b.engine.step(400);
  for (std::size_t i = 0; i < a.engine.positions().size(); ++i) {
    ASSERT_EQ(a.engine.positions()[i].z, b.engine.positions()[i].z) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(BothIntegrators, IntegratorDeterminismTest,
                         ::testing::Values(IntegratorKind::VelocityVerlet,
                                           IntegratorKind::Langevin));

// --- checkpoint / restore / clone ----------------------------------------------------

TEST(Engine, CheckpointRestoreResumesBitExact) {
  Engine engine = make_trimer(IntegratorKind::Langevin);
  engine.step(100);
  const Checkpoint snap = engine.checkpoint();

  engine.step(200);
  const Vec3 later = engine.positions()[1];

  engine.restore(snap);
  EXPECT_EQ(engine.step_count(), 100u);
  engine.step(200);
  // Same seed + same step counters → identical continuation.
  EXPECT_DOUBLE_EQ(engine.positions()[1].x, later.x);
  EXPECT_DOUBLE_EQ(engine.positions()[1].y, later.y);
  EXPECT_DOUBLE_EQ(engine.positions()[1].z, later.z);
}

TEST(Engine, RestoreRejectsWrongTopology) {
  Engine engine = make_trimer(IntegratorKind::Langevin);
  const Checkpoint snap = engine.checkpoint();
  Topology other;
  other.add_particle({});
  Engine small(std::move(other), NonbondedParams{}, MdConfig{});
  EXPECT_THROW(small.restore(snap), PreconditionError);
}

TEST(Engine, RestoreRejectsGarbage) {
  Engine engine = make_trimer(IntegratorKind::Langevin);
  Checkpoint bogus;
  bogus.bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_THROW(engine.restore(bogus), Error);
}

TEST(Engine, RejectsNonPhysicalParameters) {
  auto build = [](NonbondedParams nonbonded, MdConfig cfg = {}) {
    Topology topo;
    topo.add_particle({.mass = 1.0, .charge = -1.0, .radius = 1.0});
    topo.add_particle({.mass = 1.0, .charge = 1.0, .radius = 1.0});
    return Engine(std::move(topo), nonbonded, cfg);
  };
  EXPECT_THROW(build({}, {.dt = 0.0}), PreconditionError);
  EXPECT_THROW(build({}, {.friction = 0.0}), PreconditionError);
  // A zero Debye length used to build an engine whose forces were NaN; a
  // negative one gave an anti-screened potential.
  EXPECT_THROW(build({.debye_length = 0.0}), PreconditionError);
  EXPECT_THROW(build({.debye_length = -7.8}), PreconditionError);
  EXPECT_THROW(build({.dielectric = 0.0}), PreconditionError);
  EXPECT_THROW(build({.dielectric = -80.0}), PreconditionError);
  EXPECT_THROW(build({.epsilon_wca = -0.5}), PreconditionError);
  EXPECT_THROW(build({.debye_length = std::nan("")}), PreconditionError);
  // Purely Coulombic beads (no WCA core) are a valid model.
  EXPECT_NO_THROW(build({.epsilon_wca = 0.0}));
}

TEST(Engine, CloneWithSameSeedContinuesIdentically) {
  Engine engine = make_trimer(IntegratorKind::Langevin, 1, 77);
  engine.step(150);
  Engine copy = engine.clone(77);
  engine.step(100);
  copy.step(100);
  EXPECT_DOUBLE_EQ(engine.positions()[0].z, copy.positions()[0].z);
}

TEST(Engine, CloneWithNewSeedDiverges) {
  // The paper's clone-for-exploration: same state, fresh randomness.
  Engine engine = make_trimer(IntegratorKind::Langevin, 1, 77);
  engine.step(150);
  Engine explorer = engine.clone(4242);
  EXPECT_DOUBLE_EQ(engine.positions()[0].z, explorer.positions()[0].z);  // same state now
  engine.step(200);
  explorer.step(200);
  EXPECT_NE(engine.positions()[0].z, explorer.positions()[0].z);  // diverged
}

// --- observables -------------------------------------------------------------------

TEST(Observables, CenterOfMassWeighting) {
  Topology topo;
  topo.add_particle({.mass = 1.0});
  topo.add_particle({.mass = 3.0});
  const std::vector<Vec3> xs{{0, 0, 0}, {0, 0, 4.0}};
  const std::vector<std::uint32_t> sel{0, 1};
  EXPECT_DOUBLE_EQ(center_of_mass(xs, topo, sel).z, 3.0);
}

TEST(Observables, BondExtensionProfile) {
  spice::pore::DnaParams params;
  params.nucleotides = 4;
  auto chain = spice::pore::build_ssdna(params, 0.0);
  const auto profile = bond_extension_profile(chain.positions, chain.topology);
  ASSERT_EQ(profile.size(), 3u);
  for (const auto& b : profile) {
    EXPECT_NEAR(b.length, params.bond_length, 1e-12);
    EXPECT_NEAR(b.strain(), 0.0, 1e-12);
  }
  EXPECT_GT(profile[1].mid_z, profile[0].mid_z);  // chain ascends from the head
}

}  // namespace
