// Batched ensemble MD throughput — EnsembleEngine with runtime-dispatched
// SIMD kernels vs the one-engine-per-replica status quo.
//
// Arms (N replicas of one compact ionic cluster, identical seeds across
// arms):
//   baseline_scalar  — N independent Engine clones, scalar kernels, stepped
//                      one after another (the pre-ensemble campaign path);
//   ensemble_scalar  — EnsembleEngine, scalar kernels: same physics, shared
//                      replica-major arena. Claim check: every replica's
//                      checkpoint is BYTE-identical to its baseline twin;
//   ensemble_native  — EnsembleEngine with the host's detected SIMD level
//                      (AVX2/NEON), the production dispatch.
//
// Each arm steps its trajectory (reported as steps/s/replica) and then
// times a block of pure force evaluations on the evolved configurations —
// the quantity the SIMD kernels actually accelerate, with the integrator,
// thermostat RNG and neighbour rebuilds out of the numerator.
//
// Gate: ensemble_native per-replica FORCE-EVAL throughput ≥ 2× the
// baseline_scalar arm at N = 64. The arms pin their dispatch level through
// MdConfig (not SPICE_SIMD), so a CI job forcing the env to scalar still
// measures the native arm natively; on hosts with no vector unit the gate
// is reported as skipped. `--smoke` runs N = 8 with short trajectories and
// checks bitwise equality only.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "claims.hpp"
#include "md/engine.hpp"
#include "md/ensemble_engine.hpp"
#include "md/simd.hpp"
#include "obs/metrics.hpp"
#include "testkit/systems.hpp"

using namespace spice;
using namespace spice::claims;
using namespace spice::md;

namespace {

constexpr std::uint64_t kSeed = 2005;

/// testkit's ionic cluster with ±1 charges on one compute thread: nearly
/// every neighbour pair is live, so the load is nonbonded-dominated.
Engine make_master(std::size_t beads, simd::Request request) {
  return testkit::make_ionic_cluster({.seed = kSeed, .threads = 1, .simd = request}, beads,
                                     -1.0, 1.0);
}

std::vector<std::uint64_t> replica_seeds(std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t r = 0; r < n; ++r) {
    seeds[r] = SplitMix64(kSeed ^ (0x72ULL << 32) ^ r).next();
  }
  return seeds;
}

struct ArmResult {
  double wall_s = 0.0;
  double steps_per_sec_per_replica = 0.0;
  double force_evals_per_sec_per_replica = 0.0;
  std::vector<Checkpoint> checkpoints;
};

constexpr std::size_t kEvalRounds = 100;       ///< force-eval timing rounds
constexpr std::size_t kEvalRoundsSmoke = 10;

/// Time `rounds` full force evaluations per replica on the current
/// (post-trajectory) configurations. `eval_all` must evaluate every
/// replica once.
template <typename EvalAll>
double time_force_evals(EvalAll&& eval_all, std::size_t replicas, std::size_t rounds) {
  eval_all();  // warm caches; make sure neighbour lists are current
  const double t0 = obs::now_us();
  for (std::size_t k = 0; k < rounds; ++k) eval_all();
  const double per_eval = (obs::now_us() - t0) * 1e-6 / static_cast<double>(rounds * replicas);
  return 1.0 / per_eval;
}

/// One engine per replica, stepped serially — the pre-ensemble campaign
/// schedule on a single worker.
ArmResult run_baseline(std::size_t beads, std::size_t replicas, std::size_t steps,
                       std::size_t eval_rounds, simd::Request request) {
  const Engine master = make_master(beads, request);
  const std::vector<std::uint64_t> seeds = replica_seeds(replicas);
  std::vector<Engine> engines;
  engines.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) engines.push_back(master.clone(seeds[r]));

  const double t0 = obs::now_us();
  for (auto& engine : engines) engine.step(steps);
  ArmResult result;
  result.wall_s = (obs::now_us() - t0) * 1e-6;
  result.steps_per_sec_per_replica = static_cast<double>(steps) / result.wall_s;
  result.checkpoints.reserve(replicas);
  for (const auto& engine : engines) result.checkpoints.push_back(engine.checkpoint());
  result.force_evals_per_sec_per_replica = time_force_evals(
      [&] {
        for (auto& engine : engines) engine.compute_energies();
      },
      replicas, eval_rounds);
  return result;
}

ArmResult run_ensemble(std::size_t beads, std::size_t replicas, std::size_t steps,
                       std::size_t eval_rounds, simd::Request request) {
  const Engine master = make_master(beads, request);
  const std::vector<std::uint64_t> seeds = replica_seeds(replicas);
  EnsembleEngine ensemble(master, seeds);

  const double t0 = obs::now_us();
  ensemble.step_all(steps);
  ArmResult result;
  result.wall_s = (obs::now_us() - t0) * 1e-6;
  result.steps_per_sec_per_replica = static_cast<double>(steps) / result.wall_s;
  result.checkpoints.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    result.checkpoints.push_back(ensemble.checkpoint(r));
  }
  result.force_evals_per_sec_per_replica = time_force_evals(
      [&] {
        for (std::size_t r = 0; r < ensemble.size(); ++r) {
          ensemble.replica(r).compute_energies();
        }
      },
      replicas, eval_rounds);
  return result;
}

/// Print one arm's timings and record them under `prefix`.
void report_arm(Claim& claim, std::string_view prefix, const ArmResult& arm) {
  std::printf("  %.2f s, %.0f steps/s/replica, %.0f force-evals/s/replica\n", arm.wall_s,
              arm.steps_per_sec_per_replica, arm.force_evals_per_sec_per_replica);
  claim.set_group(prefix, {{"wall_s", arm.wall_s},
                           {"steps_per_sec_per_replica", arm.steps_per_sec_per_replica},
                           {"force_evals_per_sec_per_replica",
                            arm.force_evals_per_sec_per_replica}});
}

}  // namespace

void spice::claims::ensemble_md(Claim& claim) {
  const bool smoke = claim.smoke();

  const std::size_t beads = 128;
  const std::size_t replicas = smoke ? 8 : 64;
  const std::size_t steps = smoke ? 40 : 300;
  const std::size_t eval_rounds = smoke ? kEvalRoundsSmoke : kEvalRounds;

  const simd::Level native = simd::detect();
  simd::Request native_request = simd::Request::Scalar;
  switch (native) {
    case simd::Level::AVX2: native_request = simd::Request::AVX2; break;
    case simd::Level::NEON: native_request = simd::Request::NEON; break;
    case simd::Level::Scalar: break;
  }
  const bool have_simd = native != simd::Level::Scalar;

  std::printf("\nsystem: %zu-bead ionic cluster, N = %zu replicas, %zu steps each\n",
              beads, replicas, steps);
  std::printf("native SIMD level: %s\n", std::string(simd::name(native)).c_str());

  std::printf("\n[baseline_scalar] N independent engines, scalar kernels ...\n");
  const ArmResult base =
      run_baseline(beads, replicas, steps, eval_rounds, simd::Request::Scalar);
  report_arm(claim, "baseline_scalar", base);

  std::printf("\n[ensemble_scalar] EnsembleEngine, scalar kernels ...\n");
  const ArmResult ens_scalar =
      run_ensemble(beads, replicas, steps, eval_rounds, simd::Request::Scalar);
  report_arm(claim, "ensemble_scalar", ens_scalar);
  const bool bitwise = std::equal(
      base.checkpoints.begin(), base.checkpoints.end(), ens_scalar.checkpoints.begin(),
      ens_scalar.checkpoints.end(), [](const auto& a, const auto& b) { return a.bytes == b.bytes; });
  std::printf("  checkpoints vs baseline -> %s\n",
              bitwise ? "byte-identical" : "DIVERGED");

  ArmResult ens_native;
  double speedup = 0.0;
  double step_speedup = 0.0;
  if (have_simd) {
    std::printf("\n[ensemble_native] EnsembleEngine, %s kernels ...\n",
                std::string(simd::name(native)).c_str());
    ens_native = run_ensemble(beads, replicas, steps, eval_rounds, native_request);
    report_arm(claim, "ensemble_native", ens_native);
    speedup = ens_native.force_evals_per_sec_per_replica /
              base.force_evals_per_sec_per_replica;
    step_speedup =
        ens_native.steps_per_sec_per_replica / base.steps_per_sec_per_replica;
  }

  claim.set_group("system", {{"beads", beads}, {"replicas", replicas}, {"steps", steps},
                            {"eval_rounds", eval_rounds}});
  claim.set("native_level", simd::name(native));
  if (have_simd) {
    claim.set_group("ensemble_native", {{"force_eval_speedup_vs_baseline", speedup},
                                        {"step_speedup_vs_baseline", step_speedup}});
  }

  claim.check(bitwise, "ensemble scalar replicas byte-identical to standalone engines");
  if (smoke) {
    claim.skip("throughput gate (smoke run)");
  } else if (!have_simd) {
    claim.skip("throughput gate (no vector unit on this host)");
  } else {
    claim.check(speedup >= 2.0, fmt("ensemble_native >= 2x baseline per-replica force-eval "
                                    "throughput (%.2fx; stepping %.2fx)",
                                    speedup, step_speedup));
  }
}
