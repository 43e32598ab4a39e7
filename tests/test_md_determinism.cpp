// Determinism contract, enforced at the byte level: a fixed seed must give
// bit-identical trajectories regardless of the worker thread count. The
// comparison vehicle is the testkit golden fingerprint (FNV-1a over the
// checkpoint byte stream: positions + velocities + counters) at the
// Bitwise rung of the tolerance ladder, swept over several seeds — if any
// slice partition, reduction order or noise stream leaked
// thread-dependence, some seed's streams would diverge within a few
// hundred Langevin steps.
//
// The force pipeline's slice count is S(n) = min(16, ceil(n / 32)), so the
// 24-bead chain runs as one slice and never reaches the thread pool; the
// sized chains below span the slice boundaries (1, 2, 4 and 16 slices) to
// keep the oracle on the multi-slice paths. The thread-budget tests pin
// what `threads` means: at most that many distinct compute threads, the
// caller included.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numbers>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "md/engine.hpp"
#include "md/ensemble_engine.hpp"
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
  // The obs instrumentation on the force-eval path (recorder spans,
  // counters, detail-tier phase spans and per-kernel attribution) performs
  // only clock reads, ring writes and atomic adds — it must never touch
  // simulation state. Run the full stack of switches and require
  // byte-identical fingerprints across thread counts AND against the
  // uninstrumented baseline.
  const std::uint64_t seed = determinism_sweep().seeds().front();
  obs::set_recorder_enabled(false);
  const auto baseline = hash_after_500(seed, 1, /*with_restraint=*/true);

  obs::set_recorder_enabled(true);
  obs::set_metrics_enabled(true);
  obs::set_detail_enabled(true);

  const auto one = hash_after_500(seed, 1, /*with_restraint=*/true);
  const auto two = hash_after_500(seed, 2, /*with_restraint=*/true);
  const auto eight = hash_after_500(seed, 8, /*with_restraint=*/true);

  obs::set_detail_enabled(false);
  obs::set_metrics_enabled(false);

  EXPECT_EQ(one, baseline);
  EXPECT_EQ(two, baseline);
  EXPECT_EQ(eight, baseline);
  // The instrumentation actually ran: the detail tier's phase spans are in
  // the recorder (the caller thread evaluates forces).
  std::size_t phases = 0;
  for (const auto& e : obs::flight_recorder().drain()) {
    if (e.kind == obs::RecordKind::Span && std::string_view(e.name) == "md.force_eval.reduce") {
      ++phases;
    }
  }
  EXPECT_GT(phases, 0u);
}

/// An n-bead charged helix with a 4 Å rise, so Debye–Hückel pairs out to
/// i+4 sit inside the 18 Å cutoff: bonds, angles, dihedrals, nonbonded
/// segments and contribution ranges are all split over the S(n) slices.
Engine make_sized_chain(std::size_t beads, std::uint64_t seed, std::size_t threads) {
  constexpr double kRise = 4.0;
  constexpr double kRadius = 3.0;
  constexpr double kTwist = 0.4;
  Topology topo;
  for (std::size_t i = 0; i < beads; ++i) {
    topo.add_particle({.mass = 300.0, .charge = -1.0, .radius = 2.0, .name = "NT"});
  }
  const double bond_length = std::hypot(kRise, 2.0 * kRadius * std::sin(0.5 * kTwist));
  for (ParticleIndex i = 0; i + 1 < beads; ++i) topo.add_bond({i, i + 1, 10.0, bond_length});
  for (ParticleIndex i = 0; i + 2 < beads; ++i) {
    topo.add_angle({i, i + 1, i + 2, 5.0, std::numbers::pi});
  }
  for (ParticleIndex i = 0; i + 3 < beads; ++i) {
    topo.add_dihedral({i, i + 1, i + 2, i + 3, 0.5, 1, 0.0});
  }
  MdConfig cfg;
  cfg.threads = threads;
  cfg.seed = seed;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  std::vector<Vec3> xs(beads);
  for (std::size_t i = 0; i < beads; ++i) {
    const double phi = kTwist * static_cast<double>(i);
    xs[i] = {kRadius * std::cos(phi), kRadius * std::sin(phi), kRise * static_cast<double>(i)};
  }
  engine.set_positions(xs);
  engine.initialize_velocities(300.0);
  return engine;
}

/// Checkpoint fingerprint of a sized chain after 300 steps, optionally
/// under a COM restraint whose six atoms are spread over the whole chain
/// (so its forces land in several contribution ranges).
std::uint64_t sized_chain_hash(std::size_t beads, std::uint64_t seed, std::size_t threads,
                               bool with_restraint) {
  Engine engine = make_sized_chain(beads, seed, threads);
  std::shared_ptr<smd::StaticRestraint> restraint;
  if (with_restraint) {
    std::vector<std::uint32_t> atoms;
    for (std::size_t k = 0; k < 6; ++k) {
      atoms.push_back(static_cast<std::uint32_t>(k * (beads - 1) / 5));
    }
    restraint = std::make_shared<smd::StaticRestraint>(std::move(atoms), Vec3{0, 0, 1},
                                                       /*kappa=*/2.0, /*center=*/1.5);
    restraint->attach(engine);
    engine.add_contribution(restraint);
  }
  engine.step(300);
  return fnv1a64(engine.checkpoint().bytes);
}

TEST(Determinism, SliceCountIsAFunctionOfParticleCountOnly) {
  const std::vector<std::pair<std::size_t, std::size_t>> expected{
      {12, 1}, {32, 1}, {33, 2}, {128, 4}, {480, 15}, {481, 16}, {600, 16}};
  for (const auto& [beads, slices] : expected) {
    for (const std::size_t threads : {1, 2, 4, 8}) {
      EXPECT_EQ(make_sized_chain(beads, 1, threads).force_slice_count(), slices)
          << beads << " beads, threads = " << threads;
    }
  }
}

TEST(Determinism, SliceBoundaryChainsAreThreadCountInvariant) {
  for (const std::size_t beads : {12, 33, 128, 600}) {
    SCOPED_TRACE(std::to_string(beads) + " beads");
    // The oracle is only meaningful if every force term is live.
    Engine probe = make_sized_chain(beads, 1, 1);
    const EnergyBreakdown& e = probe.compute_energies();
    ASSERT_NE(e.nonbonded, 0.0);
    ASSERT_NE(e.dihedral, 0.0);
    for (const std::uint64_t seed : determinism_sweep().seeds()) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      for (const bool with_restraint : {false, true}) {
        SCOPED_TRACE(with_restraint ? "with restraint" : "free");
        const std::uint64_t one = sized_chain_hash(beads, seed, 1, with_restraint);
        for (const std::size_t threads : {2, 4, 8}) {
          EXPECT_EQ(sized_chain_hash(beads, seed, threads, with_restraint), one)
              << "threads = " << threads;
        }
      }
      EXPECT_NE(sized_chain_hash(beads, seed, 1, false), sized_chain_hash(beads, seed, 1, true));
    }
  }
}

// --- thread budget --------------------------------------------------------

/// A no-force contribution that records which threads evaluate it.
class ThreadRecorder final : public ForceContribution {
 public:
  double accumulate_range(std::span<const Vec3> /*positions*/, const Topology& /*topology*/,
                          double /*time*/, std::size_t /*begin*/, std::size_t /*end*/,
                          std::span<Vec3> /*forces*/) override {
    const std::lock_guard lock(mutex_);
    ids_.insert(std::this_thread::get_id());
    return 0.0;
  }
  [[nodiscard]] std::string name() const override { return "thread-recorder"; }
  [[nodiscard]] std::set<std::thread::id> ids() const {
    const std::lock_guard lock(mutex_);
    return ids_;
  }

 private:
  mutable std::mutex mutex_;
  std::set<std::thread::id> ids_;
};

/// Distinct threads that evaluate forces during 20 steps of an n-bead
/// engine at `threads`.
std::set<std::thread::id> engine_thread_ids(std::size_t beads, std::size_t threads) {
  Engine engine = make_sized_chain(beads, 1, threads);
  auto recorder = std::make_shared<ThreadRecorder>();
  engine.add_contribution(recorder);
  engine.step(20);
  return recorder->ids();
}

// With one pool worker the count is exact: the caller runs its own range
// and the worker the other. With more workers an idle one may take two
// queued ranges, so only the bounds are exact.
TEST(ThreadBudget, EngineRunsThreadsComputeThreads) {
  EXPECT_EQ(engine_thread_ids(33, 2).size(), 2u);  // S = 2
  for (const auto& [beads, threads] : {std::pair<std::size_t, std::size_t>{128, 4}, {600, 3}}) {
    const std::size_t seen = engine_thread_ids(beads, threads).size();
    EXPECT_GE(seen, 2u) << beads << " beads";
    EXPECT_LE(seen, threads) << beads << " beads";
  }
  // Never more compute threads than slices.
  EXPECT_EQ(engine_thread_ids(33, 8).size(), 2u);
}

TEST(ThreadBudget, OneSliceEngineStaysOnTheCaller) {
  const auto ids = engine_thread_ids(12, 4);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ThreadBudget, EnsembleRunsThreadsComputeThreads) {
  const Engine master = make_bead_chain({.seed = 3});
  std::vector<std::uint64_t> seeds(8);
  for (std::size_t r = 0; r < seeds.size(); ++r) seeds[r] = 500 + r;
  for (const std::size_t threads : {2, 4}) {
    SCOPED_TRACE("ensemble threads = " + std::to_string(threads));
    EnsembleEngine ensemble(master, seeds, {.threads = threads});
    auto recorder = std::make_shared<ThreadRecorder>();
    for (std::size_t r = 0; r < ensemble.size(); ++r) ensemble.add_contribution(r, recorder);
    for (int call = 0; call < 20; ++call) ensemble.step_all(1);
    const std::size_t seen = recorder->ids().size();
    if (threads == 2) {
      EXPECT_EQ(seen, 2u);
    } else {
      EXPECT_GE(seen, 2u);
      EXPECT_LE(seen, threads);
    }
  }
}

TEST(Determinism, RestraintChangesTheTrajectory) {
  // Guard against the restraint silently not being applied (which would
  // make the with-restraint determinism tests vacuous).
  const std::uint64_t seed = determinism_sweep().seeds().front();
  EXPECT_NE(hash_after_500(seed, 1, /*with_restraint=*/false),
            hash_after_500(seed, 1, /*with_restraint=*/true));
}

}  // namespace
