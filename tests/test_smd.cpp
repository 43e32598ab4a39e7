// SMD pulling protocol and restraints: anchor kinematics, work accounting,
// unit conversions, constant-force distribution and the run_pull /
// run_pulls drivers.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "common/units.hpp"
#include "md/engine.hpp"
#include "md/ensemble_engine.hpp"
#include "smd/position_restraint.hpp"
#include "smd/pulling.hpp"
#include "smd/restraint.hpp"
#include "testkit/systems.hpp"

namespace {

using namespace spice;
using namespace spice::md;
using namespace spice::smd;

/// Single free particle (no force field at all) — SMD's analytic testbed.
Engine make_free_particle(double temperature = 300.0, std::uint64_t seed = 5,
                          double dt = 0.01) {
  Topology topo;
  topo.add_particle({.mass = 100.0, .charge = 0.0, .radius = 1.0, .name = "P"});
  MdConfig cfg;
  cfg.dt = dt;
  cfg.temperature = temperature;
  cfg.friction = 2.0;
  cfg.seed = seed;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  engine.set_positions(std::vector<Vec3>{{0, 0, 0}});
  engine.initialize_velocities(temperature);
  return engine;
}

SmdParams default_params(double kappa_pn = 100.0, double v_ns = 100.0) {
  SmdParams p;
  p.spring_pn_per_angstrom = kappa_pn;
  p.velocity_angstrom_per_ns = v_ns;
  p.direction = {0.0, 0.0, -1.0};
  p.smd_atoms = {0};
  return p;
}

TEST(SmdParams, UnitConversions) {
  const SmdParams p = default_params(100.0, 12.5);
  EXPECT_NEAR(p.spring_internal(), 100.0 / units::kPicoNewtonPerKcalMolAngstrom, 1e-12);
  EXPECT_DOUBLE_EQ(p.velocity_internal(), 0.0125);
}

TEST(ConstantVelocityPull, RequiresAttachBeforeUse) {
  Engine engine = make_free_particle();
  auto pull = std::make_shared<ConstantVelocityPull>(default_params());
  engine.add_contribution(pull);
  EXPECT_THROW(engine.step(), PreconditionError);
}

TEST(ConstantVelocityPull, AnchorAdvancesAtRequestedVelocity) {
  Engine engine = make_free_particle();
  auto pull = std::make_shared<ConstantVelocityPull>(default_params(100.0, 100.0));
  pull->attach(engine);
  engine.add_contribution(pull);
  engine.step(1000);  // 10 ps at 0.1 Å/ps → λ = 1 Å
  EXPECT_NEAR(pull->lambda(), 1.0, 1e-9);
}

TEST(ConstantVelocityPull, DragsParticleAlongDirection) {
  Engine engine = make_free_particle();
  auto pull = std::make_shared<ConstantVelocityPull>(default_params(1000.0, 200.0));
  pull->attach(engine);
  engine.add_contribution(pull);
  engine.step(5000);  // λ = 10 Å
  // Stiff spring: particle z ≈ −10 (pull direction is −z).
  EXPECT_NEAR(engine.positions()[0].z, -10.0, 1.5);
  EXPECT_NEAR(pull->xi(), 10.0, 1.5);
}

TEST(ConstantVelocityPull, FreeParticleWorkIsSmall) {
  // Moving a harmonic trap holding a free particle costs zero free energy;
  // for slow pulls the work is a small, friction-dominated quantity —
  // crucially NOT comparable to κ λ²/2 (which would indicate the work
  // accounting confused spring energy with external work).
  Engine engine = make_free_particle(300.0, 21);
  auto pull = std::make_shared<ConstantVelocityPull>(default_params(100.0, 50.0));
  pull->attach(engine);
  engine.add_contribution(pull);
  const PullResult result = run_pull(engine, *pull, 5.0, 10);
  const double spring_scale =
      0.5 * pull->params().spring_internal() * 25.0;  // ½κλ² ≈ 18 kcal/mol
  EXPECT_LT(std::abs(result.samples.back().work), 0.3 * spring_scale);
}

TEST(ConstantVelocityPull, WorkIsProtocolReversibleInMean) {
  // ⟨W⟩ ≥ ΔF = 0 (Jarzynski/second law) for the free particle: mean work
  // over replicas must be non-negative within noise.
  RunningStats w_final;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Engine engine = make_free_particle(300.0, 100 + seed);
    auto pull = std::make_shared<ConstantVelocityPull>(default_params(100.0, 100.0));
    pull->attach(engine);
    engine.add_contribution(pull);
    const PullResult r = run_pull(engine, *pull, 4.0, 10);
    w_final.add(r.samples.back().work);
  }
  EXPECT_GT(w_final.mean(), -0.5);  // allow statistical noise around 0+dissipation
}

TEST(ConstantVelocityPull, WorkAccumulatesOnlyWithTime) {
  Engine engine = make_free_particle();
  auto pull = std::make_shared<ConstantVelocityPull>(default_params());
  pull->attach(engine);
  engine.add_contribution(pull);
  engine.step(100);
  const double w1 = pull->work();
  // Repeated energy evaluations at the same time must not change W.
  engine.compute_energies();
  engine.compute_energies();
  EXPECT_DOUBLE_EQ(pull->work(), w1);
}

TEST(ConstantVelocityPull, SpringEnergyMatchesDeviation) {
  Engine engine = make_free_particle();
  auto pull = std::make_shared<ConstantVelocityPull>(default_params(100.0, 100.0));
  pull->attach(engine);
  engine.add_contribution(pull);
  engine.step(2000);
  const auto& e = engine.compute_energies();
  const double dev = pull->xi() - pull->lambda();
  EXPECT_NEAR(e.external, 0.5 * pull->params().spring_internal() * dev * dev, 1e-9);
}

TEST(RunPull, ReachesRequestedDistanceAndSamples) {
  Engine engine = make_free_particle();
  auto pull = std::make_shared<ConstantVelocityPull>(default_params(100.0, 200.0));
  pull->attach(engine);
  engine.add_contribution(pull);
  const PullResult result = run_pull(engine, *pull, 3.0, 7);
  EXPECT_NEAR(result.pulled_distance, 3.0, 0.01);
  EXPECT_GE(result.samples.size(), 2u);
  // λ is monotone through the samples and the last sample hits the end.
  for (std::size_t i = 1; i < result.samples.size(); ++i) {
    EXPECT_GT(result.samples[i].lambda, result.samples[i - 1].lambda);
  }
  EXPECT_NEAR(result.samples.back().lambda, 3.0, 0.01);
  EXPECT_DOUBLE_EQ(result.samples.front().work, 0.0);
}

/// Bit patterns of every field of every sample, so equality is bitwise.
std::vector<std::uint64_t> sample_bits(const PullResult& result) {
  std::vector<std::uint64_t> out;
  for (const PullSample& s : result.samples) {
    for (const double v : {s.time, s.lambda, s.xi, s.force, s.work}) {
      out.push_back(std::bit_cast<std::uint64_t>(v));
    }
  }
  return out;
}

TEST(RunPulls, EqualPerSeedClonesBitwise) {
  // The batched driver against master.clone(seed) + run_pull per seed. The
  // clones step at the master's thread count, the ensemble replicas at 1;
  // the hold phase and the partial final sample interval exercise every
  // branch of the shared schedule.
  const std::vector<std::uint64_t> seeds{11, 12, 13, 14};
  SmdParams params = default_params(100.0, 500.0);
  params.hold_ps = 0.35;
  constexpr double kDistance = 1.3;
  constexpr std::size_t kEvery = 7;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("master threads = " + std::to_string(threads));
    const Engine master = testkit::make_bead_chain({.seed = 3, .threads = threads});
    std::vector<PullResult> clones;
    for (const std::uint64_t seed : seeds) {
      Engine engine = master.clone(seed);
      auto pull = std::make_shared<ConstantVelocityPull>(params);
      pull->attach(engine);
      engine.add_contribution(pull);
      clones.push_back(run_pull(engine, *pull, kDistance, kEvery));
    }
    ASSERT_NE(clones[0].steps % kEvery, 0u);
    EXPECT_NE(sample_bits(clones[0]), sample_bits(clones[1]));

    EnsembleEngine ensemble(master, seeds, {.threads = 2});
    const std::vector<PullResult> batched = run_pulls(ensemble, params, kDistance, kEvery);
    ASSERT_EQ(batched.size(), seeds.size());
    for (std::size_t r = 0; r < seeds.size(); ++r) {
      EXPECT_EQ(batched[r].steps, clones[r].steps);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[r].pulled_distance),
                std::bit_cast<std::uint64_t>(clones[r].pulled_distance));
      EXPECT_EQ(sample_bits(batched[r]), sample_bits(clones[r])) << "replica " << r;
    }
  }
}

TEST(RunEnsemblePull, RejectsNullOrDetachedPulls) {
  const Engine master = make_free_particle();
  const std::vector<std::uint64_t> seeds{1, 2};
  EnsembleEngine ensemble(master, seeds);
  auto attached = std::make_shared<ConstantVelocityPull>(default_params());
  attached->attach(ensemble.replica(1));
  ensemble.add_contribution(1, attached);
  std::vector<std::shared_ptr<ConstantVelocityPull>> pulls{nullptr, attached};
  EXPECT_THROW((void)run_ensemble_pull(ensemble, pulls, 1.0), PreconditionError);
  pulls[0] = std::make_shared<ConstantVelocityPull>(default_params());  // never attached
  EXPECT_THROW((void)run_ensemble_pull(ensemble, pulls, 1.0), PreconditionError);
}

TEST(ConstantForcePull, DistributesByMass) {
  Topology topo;
  topo.add_particle({.mass = 10.0, .radius = 1.0});
  topo.add_particle({.mass = 30.0, .radius = 1.0});
  topo.add_exclusion(0, 1);
  MdConfig cfg;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  engine.set_positions(std::vector<Vec3>{{0, 0, 0}, {0, 0, 100.0}});

  auto pull = std::make_shared<ConstantForcePull>(std::vector<std::uint32_t>{0, 1},
                                                  Vec3{0, 0, -8.0});
  engine.add_contribution(pull);
  engine.compute_energies();
  EXPECT_NEAR(engine.forces()[0].z, -2.0, 1e-12);  // 10/40 of the total
  EXPECT_NEAR(engine.forces()[1].z, -6.0, 1e-12);  // 30/40
}

TEST(ConstantForcePull, ForceCanBeRetargeted) {
  Engine engine = make_free_particle();
  auto pull = std::make_shared<ConstantForcePull>(std::vector<std::uint32_t>{0},
                                                  Vec3{0, 0, 0});
  engine.add_contribution(pull);
  pull->set_force({0, 0, -50.0});
  engine.compute_energies();
  EXPECT_NEAR(engine.forces()[0].z, -50.0, 1e-12);
}

// --- StaticRestraint ------------------------------------------------------------

TEST(StaticRestraint, HoldsCoordinateAtCenter) {
  Engine engine = make_free_particle(300.0, 31);
  auto restraint = std::make_shared<StaticRestraint>(std::vector<std::uint32_t>{0},
                                                     Vec3{0, 0, -1.0}, 20.0, 4.0);
  restraint->attach(engine);
  engine.add_contribution(restraint);
  engine.step(4000);
  // ξ should fluctuate around 4 with σ = √(kT/κ) ≈ 0.17 Å.
  EXPECT_NEAR(restraint->xi(), 4.0, 1.0);
}

TEST(StaticRestraint, EquilibriumFluctuationsMatchTheory) {
  Engine engine = make_free_particle(300.0, 37);
  const double kappa = 10.0;
  auto restraint = std::make_shared<StaticRestraint>(std::vector<std::uint32_t>{0},
                                                     Vec3{0, 0, -1.0}, kappa, 0.0);
  restraint->attach(engine);
  engine.add_contribution(restraint);
  engine.step(2000);  // equilibrate
  restraint->reset_statistics();
  engine.step(30000);
  const double expected_var = units::kT(300.0) / kappa;
  EXPECT_NEAR(restraint->xi_stats().variance(), expected_var, 0.35 * expected_var);
  // Mean restraint force vanishes at equilibrium for a free particle.
  EXPECT_NEAR(restraint->force_stats().mean(), 0.0, 0.35);
}

TEST(StaticRestraint, RecordsSamplesWhenEnabled) {
  Engine engine = make_free_particle();
  auto restraint = std::make_shared<StaticRestraint>(std::vector<std::uint32_t>{0},
                                                     Vec3{0, 0, -1.0}, 5.0, 0.0);
  restraint->attach(engine);
  restraint->set_record_samples(true);
  engine.add_contribution(restraint);
  engine.step(100);
  // One sample at t = 0 (initial force evaluation) plus one per step.
  EXPECT_EQ(restraint->xi_samples().size(), 101u);
  restraint->reset_statistics();
  EXPECT_TRUE(restraint->xi_samples().empty());
}

// --- PositionRestraint ------------------------------------------------------------

TEST(PositionRestraint, HoldsAtomNearAnchor) {
  Engine engine = make_free_particle(300.0, 41);
  auto restraint = std::make_shared<PositionRestraint>(std::vector<std::uint32_t>{0}, 25.0);
  restraint->attach(engine);
  engine.add_contribution(restraint);
  engine.step(5000);
  // σ per axis = √(kT/k) ≈ 0.15 Å; allow generous slack.
  EXPECT_NEAR(engine.positions()[0].norm(), 0.0, 1.2);
}

TEST(PositionRestraint, MaskLeavesAxesFree) {
  // Pin x and y only: the particle must still diffuse along z.
  Engine engine = make_free_particle(300.0, 43);
  auto restraint = std::make_shared<PositionRestraint>(std::vector<std::uint32_t>{0}, 25.0,
                                                       Vec3{1.0, 1.0, 0.0});
  restraint->attach(engine);
  engine.add_contribution(restraint);
  engine.step(20000);
  const Vec3 r = engine.positions()[0];
  EXPECT_LT(std::abs(r.x), 1.2);
  EXPECT_LT(std::abs(r.y), 1.2);
  EXPECT_GT(std::abs(r.z), 1.2);  // free diffusion: √(2Dt) ≫ restrained σ
}

TEST(PositionRestraint, ForceAndEnergyMatchDefinition) {
  Engine engine = make_free_particle();
  auto restraint = std::make_shared<PositionRestraint>(std::vector<std::uint32_t>{0}, 10.0);
  restraint->attach_anchors({{1.0, 0.0, 0.0}});  // particle is at the origin
  engine.add_contribution(restraint);
  const auto& e = engine.compute_energies();
  EXPECT_NEAR(e.external, 0.5 * 10.0 * 1.0, 1e-12);  // ½ k |dev|²
  EXPECT_NEAR(engine.forces()[0].x, 10.0, 1e-12);    // pulled toward the anchor
}

TEST(PositionRestraint, RejectsBadInput) {
  EXPECT_THROW(PositionRestraint({}, 10.0), PreconditionError);
  EXPECT_THROW(PositionRestraint({0}, -1.0), PreconditionError);
  EXPECT_THROW(PositionRestraint({0}, 1.0, Vec3{0, 0, 0}), PreconditionError);
  PositionRestraint r({0, 1}, 1.0);
  EXPECT_THROW(r.attach_anchors({{0, 0, 0}}), PreconditionError);  // count mismatch
}

TEST(StaticRestraint, SharedReferenceGivesConsistentCoordinates) {
  Engine engine = make_free_particle();
  auto a = std::make_shared<StaticRestraint>(std::vector<std::uint32_t>{0}, Vec3{0, 0, -1.0},
                                             5.0, 0.0);
  auto b = std::make_shared<StaticRestraint>(std::vector<std::uint32_t>{0}, Vec3{0, 0, -1.0},
                                             5.0, 2.0);
  a->attach_reference({0, 0, 0});
  b->attach_reference({0, 0, 0});
  engine.add_contribution(a);
  engine.add_contribution(b);
  engine.step(10);
  EXPECT_DOUBLE_EQ(a->xi(), b->xi());
}

}  // namespace
