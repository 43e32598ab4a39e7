// EnsembleEngine contract tests.
//
// The batched engine's whole value proposition rests on two promises:
//
//   1. Replica r of an EnsembleEngine is byte-for-byte the trajectory of
//      `master.clone(seeds[r])` stepped standalone — for ANY ensemble
//      thread count (replicas are data-disjoint; each is stepped by one
//      worker with its internal pipeline at threads = 1).
//   2. The runtime-dispatched SIMD kernels change performance, never
//      physics: vector forces agree with the scalar reference within the
//      testkit tolerance ladder's norm bounds, and the scalar path stays
//      bit-exact.
//
// Alongside these sit the batching regressions that bit the prototype:
// neighbour-list rebuild decisions must stay per-replica (one hot replica
// must not force — or suppress — rebuilds of its siblings).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "md/engine.hpp"
#include "md/ensemble_engine.hpp"
#include "md/simd.hpp"
#include "pore/system.hpp"
#include "smd/pulling.hpp"
#include "testkit/golden.hpp"
#include "testkit/systems.hpp"

namespace {

using namespace spice;
using namespace spice::md;
using namespace spice::testkit;

std::vector<std::uint64_t> replica_seeds(std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t r = 0; r < n; ++r) seeds[r] = 1000 + 17 * r;
  return seeds;
}

/// Fingerprints of every replica after `steps` ensemble steps.
std::vector<std::uint64_t> ensemble_hashes(const Engine& master,
                                           const std::vector<std::uint64_t>& seeds,
                                           std::size_t ensemble_threads, std::size_t steps) {
  EnsembleEngine ensemble(master, seeds, {.threads = ensemble_threads});
  ensemble.step_all(steps);
  std::vector<std::uint64_t> hashes(seeds.size());
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    hashes[r] = fnv1a64(ensemble.checkpoint(r).bytes);
  }
  return hashes;
}

// --- determinism contract -------------------------------------------------

// Replica r ≡ master.clone(seeds[r]) at the Bitwise rung, 500 Langevin
// steps, for ensemble thread counts 1 / 2 / 8. Scalar request so the
// expectation is host-independent.
TEST(MdEnsemble, ReplicasMatchStandaloneClonesBitwise) {
  const Engine master = make_bead_chain({.seed = 42, .simd = simd::Request::Scalar});
  const auto seeds = replica_seeds(6);

  std::vector<std::uint64_t> standalone(seeds.size());
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    Engine engine = master.clone(seeds[r]);
    engine.step(500);
    standalone[r] = fnv1a64(engine.checkpoint().bytes);
  }
  // Distinct seeds must give distinct trajectories (guards against the
  // degenerate "everything hashes equal because nothing moved" pass).
  EXPECT_NE(standalone[0], standalone[1]);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("ensemble threads = " + std::to_string(threads));
    EXPECT_EQ(ensemble_hashes(master, seeds, threads, 500), standalone);
  }
}

/// The request that pins this CPU's best tier (SPICE_SIMD notwithstanding).
simd::Request native_request() {
  switch (simd::detect()) {
    case simd::Level::AVX2:
      return simd::Request::AVX2;
    case simd::Level::NEON:
      return simd::Request::NEON;
    case simd::Level::Scalar:
      break;
  }
  return simd::Request::Scalar;
}

/// A constant-velocity pull on the head bead, attached to `engine` now.
std::shared_ptr<smd::ConstantVelocityPull> head_pull(const Engine& engine) {
  smd::SmdParams params;
  params.spring_pn_per_angstrom = 100.0;
  params.velocity_angstrom_per_ns = 1000.0;  // 4 Å over the 4 ps run
  params.smd_atoms = {0};
  auto pull = std::make_shared<smd::ConstantVelocityPull>(params);
  pull->attach(engine);
  return pull;
}

// The paper's system: the 12-bead strand in the pore with an SMD pull per
// replica. At 12 particles the force pipeline is one slice, so the master's
// md.threads = 4 never reaches a pool; replicas must still match clones
// bitwise under the scalar and the native dispatch alike.
TEST(MdEnsemble, PaperSystemReplicasMatchClonesUnderBothDispatches) {
  for (const simd::Request request : {simd::Request::Scalar, native_request()}) {
    pore::TranslocationConfig config;
    config.md.seed = 11;
    config.md.threads = 4;
    config.md.simd = request;
    config.equilibration_steps = 0;
    const pore::TranslocationSystem system = pore::build_translocation_system(config);
    const Engine& master = system.engine;
    SCOPED_TRACE(std::string(simd::name(master.simd_level())));
    ASSERT_EQ(master.topology().particle_count(), 12u);
    ASSERT_EQ(master.force_slice_count(), 1u);
    const auto seeds = replica_seeds(6);

    std::vector<std::uint64_t> standalone(seeds.size());
    for (std::size_t r = 0; r < seeds.size(); ++r) {
      Engine engine = master.clone(seeds[r]);
      engine.add_contribution(head_pull(engine));
      engine.step(400);
      standalone[r] = fnv1a64(engine.checkpoint().bytes);
    }
    EXPECT_NE(standalone[0], standalone[1]);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE("ensemble threads = " + std::to_string(threads));
      EnsembleEngine ensemble(master, seeds, {.threads = threads});
      for (std::size_t r = 0; r < seeds.size(); ++r) {
        ensemble.add_contribution(r, head_pull(ensemble.replica(r)));
      }
      ensemble.step_all(400);
      for (std::size_t r = 0; r < seeds.size(); ++r) {
        EXPECT_EQ(fnv1a64(ensemble.checkpoint(r).bytes), standalone[r]) << "replica " << r;
      }
    }
  }
}

// The SIMD path has its own (reordered-rounding) trajectory, but it must
// still be identical across ensemble thread counts: lane assignment and
// reduction order are functions of the batch, never of the worker count.
TEST(MdEnsemble, SimdTrajectoriesThreadCountInvariant) {
  if (simd::active() == simd::Level::Scalar) {
    GTEST_SKIP() << "no vector SIMD tier on this host";
  }
  const Engine master = make_bead_chain({.seed = 42, .simd = simd::Request::Auto});
  const auto seeds = replica_seeds(4);
  const auto one = ensemble_hashes(master, seeds, 1, 300);
  EXPECT_EQ(ensemble_hashes(master, seeds, 2, 300), one);
  EXPECT_EQ(ensemble_hashes(master, seeds, 8, 300), one);
}

// --- SIMD vs scalar physics ----------------------------------------------

// Forces and the energy breakdown from the dispatched vector kernels must
// agree with the scalar reference within norm bounds. The mixed-precision
// AVX2 nonbonded kernel carries fp32 intermediates: measured worst-case
// relative force error on the helix is ~6e-7, so 1e-5 is a loose rung
// that still catches any dropped pair or wrong constant outright.
TEST(MdEnsemble, SimdForcesMatchScalarWithinNormBounds) {
  if (simd::active() == simd::Level::Scalar) {
    GTEST_SKIP() << "no vector SIMD tier on this host";
  }
  Engine scalar = make_bead_chain({.seed = 7, .simd = simd::Request::Scalar});
  Engine vector = make_bead_chain({.seed = 7, .simd = simd::Request::Auto});
  ASSERT_NE(vector.simd_level(), simd::Level::Scalar);

  // Exercise a non-trivial configuration: evolve the scalar engine, then
  // impose its positions on both so the comparison sees bent angles and
  // close nonbonded contacts rather than the pristine initial helix.
  scalar.step(200);
  const std::vector<Vec3> xs(scalar.positions().begin(), scalar.positions().end());
  vector.set_positions(xs);
  scalar.set_positions(xs);

  const EnergyBreakdown& es = scalar.compute_energies();
  const double e_bond_s = es.bond;
  const double e_nb_s = es.nonbonded;
  const double e_total_s = es.total();
  const std::vector<Vec3> fs(scalar.forces().begin(), scalar.forces().end());

  const EnergyBreakdown& ev = vector.compute_energies();
  constexpr double kRelTol = 1e-5;
  EXPECT_NEAR(ev.bond, e_bond_s, kRelTol * std::max(1.0, std::abs(e_bond_s)));
  EXPECT_NEAR(ev.nonbonded, e_nb_s, kRelTol * std::max(1.0, std::abs(e_nb_s)));
  EXPECT_NEAR(ev.total(), e_total_s, kRelTol * std::max(1.0, std::abs(e_total_s)));

  double f_scale = 0.0;
  for (const Vec3& f : fs) f_scale = std::max(f_scale, f.norm());
  ASSERT_GT(f_scale, 0.0);
  for (std::size_t i = 0; i < fs.size(); ++i) {
    const Vec3 d = vector.forces()[i] - fs[i];
    EXPECT_LT(d.norm(), kRelTol * f_scale) << "particle " << i;
  }
}

// --- per-replica neighbour-list decisions --------------------------------

// One hot replica must rebuild alone: displace replica 0 past the skin/2
// trigger while its siblings sit still, step once, and check that only
// replica 0's list rebuilt. (The prototype shared rebuild bookkeeping
// across the batch, so a hot replica dragged every sibling through a
// rebuild — or worse, a cold majority suppressed the hot one's.)
TEST(MdEnsemble, HotReplicaRebuildsAlone) {
  const Engine master = make_bead_chain({.seed = 5, .simd = simd::Request::Scalar});
  const auto seeds = replica_seeds(4);
  EnsembleEngine ensemble(master, seeds, {.threads = 2});

  // Settle construction-time builds, then capture the baseline counts.
  ensemble.step_all(2);
  std::vector<std::size_t> before(seeds.size());
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    before[r] = ensemble.replica(r).neighbor_list().rebuild_count();
  }

  // Rigid translation: every particle of replica 0 moves by well over
  // skin/2, so its displacement-since-build test MUST fire; the siblings'
  // per-step drift at this dt is orders of magnitude below the trigger.
  const double shift = 0.75 * ensemble.replica(0).neighbor_list().skin() + 0.5;
  std::vector<Vec3> xs(ensemble.replica(0).positions().begin(),
                       ensemble.replica(0).positions().end());
  for (Vec3& x : xs) x.x += shift;
  ensemble.replica(0).set_positions(xs);

  ensemble.step_all(1);
  EXPECT_GT(ensemble.replica(0).neighbor_list().rebuild_count(), before[0]);
  for (std::size_t r = 1; r < seeds.size(); ++r) {
    EXPECT_EQ(ensemble.replica(r).neighbor_list().rebuild_count(), before[r])
        << "cold replica " << r << " rebuilt alongside the hot one";
  }
}

}  // namespace
