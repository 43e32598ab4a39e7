// Determinism contract, enforced at the byte level: a fixed seed must give
// bit-identical trajectories regardless of the worker thread count. The
// comparison vehicle is the testkit golden fingerprint (FNV-1a over the
// checkpoint byte stream: positions + velocities + counters) at the
// Bitwise rung of the tolerance ladder, swept over several seeds — if any
// slice partition, reduction order or noise stream leaked
// thread-dependence, some seed's streams would diverge within a few
// hundred Langevin steps.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "md/engine.hpp"
#include "obs/obs.hpp"
#include "smd/restraint.hpp"
#include "testkit/golden.hpp"
#include "testkit/seed_sweep.hpp"
#include "testkit/systems.hpp"

namespace {

using namespace spice;
using namespace spice::md;
using namespace spice::testkit;

/// Checkpoint fingerprint of the 24-bead helix after 500 steps.
std::uint64_t hash_after_500(std::uint64_t seed, std::size_t threads, bool with_restraint) {
  Engine engine = make_bead_chain({.seed = seed, .threads = threads});
  std::shared_ptr<smd::StaticRestraint> restraint;
  if (with_restraint) {
    restraint = std::make_shared<smd::StaticRestraint>(
        std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}, Vec3{0, 0, 1}, /*kappa=*/2.0,
        /*center=*/1.5);
    restraint->attach(engine);
    engine.add_contribution(restraint);
  }
  engine.step(500);
  return fnv1a64(engine.checkpoint().bytes);
}

/// The determinism seed sweep: a handful of seeds is plenty (any leak
/// diverges within hundreds of steps); SPICE_SWEEP_SEEDS widens it.
const SeedSweep& determinism_sweep() {
  static const SeedSweep sweep({.seeds = 3, .base_seed = 77, .stream = 0xde7});
  return sweep;
}

void expect_thread_count_invariant(bool with_restraint) {
  for (const std::uint64_t seed : determinism_sweep().seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::uint64_t one = hash_after_500(seed, 1, with_restraint);
    for (const std::size_t threads : sweep_thread_counts({2, 8})) {
      EXPECT_EQ(hash_after_500(seed, threads, with_restraint), one)
          << "threads = " << threads;
    }
  }
}

TEST(Determinism, CheckpointBytesIdenticalAcrossThreadCounts) {
  expect_thread_count_invariant(/*with_restraint=*/false);
}

TEST(Determinism, CheckpointBytesIdenticalAcrossThreadCountsWithSmdRestraint) {
  // The COM spring's serial begin_evaluation + ranged force distribution
  // must not introduce thread-order dependence either.
  expect_thread_count_invariant(/*with_restraint=*/true);
}

TEST(Determinism, GoldenSystemsAreThreadCountInvariant) {
  // The same contract through the full golden observable set (energies,
  // norms, SMD work — not just the checkpoint hash) for every registered
  // canonical system, pore and pull included.
  for (const std::string& system : golden_system_names()) {
    SCOPED_TRACE(system);
    const GoldenRecord serial = run_golden(system, {.threads = 1});
    const GoldenRecord parallel = run_golden(system, {.threads = 8});
    const GoldenDrift drift = compare_golden(parallel, serial, GoldenLevel::Bitwise);
    EXPECT_TRUE(drift.ok) << drift.summary();
  }
}

TEST(Determinism, TracingAndMetricsDoNotPerturbTrajectories) {
  // The obs instrumentation on the force-eval path (counters, phase spans,
  // per-kernel detail attribution) performs only clock reads and atomic
  // adds — it must never touch simulation state. Run the full stack of
  // switches and require byte-identical fingerprints across thread counts
  // AND against the uninstrumented baseline.
  const std::uint64_t seed = determinism_sweep().seeds().front();
  const auto baseline = hash_after_500(seed, 1, /*with_restraint=*/true);

  obs::Tracer tracer("determinism");
  tracer.set_event_limit(100'000);
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  obs::set_detail_enabled(true);
  obs::set_process_tracer(&tracer);

  const auto one = hash_after_500(seed, 1, /*with_restraint=*/true);
  const auto two = hash_after_500(seed, 2, /*with_restraint=*/true);
  const auto eight = hash_after_500(seed, 8, /*with_restraint=*/true);

  obs::set_process_tracer(nullptr);
  obs::set_detail_enabled(false);
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);

  EXPECT_EQ(one, baseline);
  EXPECT_EQ(two, baseline);
  EXPECT_EQ(eight, baseline);
  EXPECT_GT(tracer.event_count(), 0u);  // the instrumentation actually ran
}

TEST(Determinism, RestraintChangesTheTrajectory) {
  // Guard against the restraint silently not being applied (which would
  // make the with-restraint determinism tests vacuous).
  const std::uint64_t seed = determinism_sweep().seeds().front();
  EXPECT_NE(hash_after_500(seed, 1, /*with_restraint=*/false),
            hash_after_500(seed, 1, /*with_restraint=*/true));
}

}  // namespace
