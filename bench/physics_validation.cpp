// Sensitivity demonstration for the spice::testkit invariant gates: a 1 %
// force-scaling bug — forces 1 % stronger than the energy gradient, the
// classic "wrong prefactor in one kernel" regression — must trip at least
// two independent validation gates while the clean build passes all of
// them. The bug is injected from OUTSIDE the engine, as an extra
// ForceContribution that echoes 1 % of the harmonic-well restoring force
// with zero energy, so the production force path stays untouched and the
// clean/bugged arms differ only in the injected contribution.
//
// Detectors (one row each, clean vs bugged):
//   1. configurational equipartition — seed-swept z-test on ⟨k·x²⟩/kT = 1
//      (the bug shifts the sampled variance to kT/1.01k, ~1 % low);
//   2. force/energy consistency — central finite difference of the total
//      energy vs the reported forces (the echoed force has no energy, so
//      the mismatch is ~1e-2 against a clean baseline of ~1e-8);
//   3. golden-record comparison at the NormBounded rung — checkpoint hash
//      plus energy/ratio observables of a fixed-seed trajectory.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "claims.hpp"
#include "common/statistics.hpp"
#include "common/units.hpp"
#include "md/force_contribution.hpp"
#include "testkit/testkit.hpp"

using namespace spice;
using namespace spice::claims;
using namespace spice::testkit;

namespace {

/// The injected bug: +ε of the well array's restoring force, no energy.
class ForceScalingBug final : public md::ForceContribution {
 public:
  ForceScalingBug(std::vector<Vec3> anchors, double stiffness, double epsilon)
      : anchors_(std::move(anchors)), stiffness_(stiffness), epsilon_(epsilon) {}

  double accumulate_range(std::span<const Vec3> positions, const md::Topology&, double,
                          std::size_t begin, std::size_t end,
                          std::span<Vec3> forces) override {
    for (std::size_t i = begin; i < end && i < anchors_.size(); ++i) {
      forces[i] += (anchors_[i] - positions[i]) * (epsilon_ * stiffness_);
    }
    return 0.0;  // the defining property of the bug: force without energy
  }
  [[nodiscard]] std::string name() const override { return "force-scaling-bug"; }

 private:
  std::vector<Vec3> anchors_;
  double stiffness_;
  double epsilon_;
};

struct Arm {
  double equipartition_z = 0.0;
  double fd_error = 0.0;
  GoldenRecord golden;
};

constexpr double kEpsilonBug = 0.01;
constexpr std::size_t kSnapshots = 400;
constexpr std::size_t kStride = 30;
constexpr std::size_t kEquilibration = 600;

WellArray make_arm_system(std::uint64_t seed, const WellArraySpec& spec, bool bugged) {
  WellArray array = make_well_array({.seed = seed}, spec);
  if (bugged) {
    array.engine.add_contribution(std::make_shared<ForceScalingBug>(
        array.wells->anchors(), spec.stiffness, kEpsilonBug));
  }
  return array;
}

/// Per-seed mean of the configurational equipartition ratio ⟨k·x²⟩/kT,
/// computed against the NOMINAL stiffness (the analysis never knows about
/// the bug — that is the point).
double seed_mean_ratio(std::uint64_t seed, const WellArraySpec& spec, bool bugged) {
  WellArray array = make_arm_system(seed, spec, bugged);
  array.engine.step(kEquilibration);
  const double kt = units::kT(spec.temperature);
  const std::vector<Vec3>& anchors = array.wells->anchors();
  RunningStats ratio;
  for (std::size_t s = 0; s < kSnapshots; ++s) {
    array.engine.step(kStride);
    const std::span<const Vec3> xs = array.engine.positions();
    double sum = 0.0;
    for (std::size_t i = 0; i < spec.particles; ++i) {
      sum += spec.stiffness * (xs[i] - anchors[i]).norm2() / kt;
    }
    ratio.add(sum / static_cast<double>(spec.particles * 3));
  }
  return ratio.mean();
}

/// Central-difference check of force vs −dE/dx on a thermalized state,
/// relative to the largest force magnitude.
double fd_error(std::uint64_t seed, const WellArraySpec& spec, bool bugged) {
  WellArray array = make_arm_system(seed, spec, bugged);
  md::Engine& engine = array.engine;
  engine.step(kEquilibration);
  constexpr double kStep = 1e-4;

  const std::vector<Vec3> base(engine.positions().begin(), engine.positions().end());
  engine.compute_energies();
  const std::vector<Vec3> forces(engine.forces().begin(), engine.forces().end());
  double scale = 1.0;
  for (const Vec3& f : forces) scale = std::max(scale, f.norm());

  double worst = 0.0;
  for (const std::size_t p : {std::size_t{0}, std::size_t{17}, std::size_t{63}}) {
    for (int axis = 0; axis < 3; ++axis) {
      std::vector<Vec3> xs = base;
      double* coord = axis == 0 ? &xs[p].x : axis == 1 ? &xs[p].y : &xs[p].z;
      const double origin = *coord;
      *coord = origin + kStep;
      engine.set_positions(xs);
      const double e_plus = engine.compute_energies().total();
      *coord = origin - kStep;
      engine.set_positions(xs);
      const double e_minus = engine.compute_energies().total();
      const double fd = -(e_plus - e_minus) / (2.0 * kStep);
      const double reported =
          axis == 0 ? forces[p].x : axis == 1 ? forces[p].y : forces[p].z;
      worst = std::max(worst, std::abs(fd - reported) / scale);
    }
  }
  return worst;
}

/// Fixed-seed trajectory reduced to a golden record: checkpoint hash plus
/// scalar observables, exactly what the committed tests/golden files hold.
GoldenRecord golden_record(const WellArraySpec& spec, bool bugged) {
  WellArray array = make_arm_system(/*seed=*/5150, spec, bugged);
  array.engine.step(kEquilibration);
  GoldenRecord record;
  record.system = "wellarray-bench";
  record.config = "seed 5150, 600 steps";
  const auto checkpoint = array.engine.checkpoint();
  record.checkpoint_hash = fnv1a64(checkpoint.bytes);
  record.checkpoint_size = checkpoint.bytes.size();
  const auto energies = array.engine.compute_energies();
  record.observables.push_back({"energy.total", energies.total()});
  record.observables.push_back({"kinetic", array.engine.kinetic_energy()});
  return record;
}

Arm run_arm(bool bugged) {
  const WellArraySpec spec;
  Arm arm;
  // Same seeds for both arms: the comparison is paired by construction.
  const SeedSweep sweep({.seeds = 8, .base_seed = 24601, .stream = 0x1});
  const std::vector<double> ratios =
      sweep.collect([&](std::uint64_t seed) { return seed_mean_ratio(seed, spec, bugged); });
  arm.equipartition_z = z_test_mean(ratios, 1.0).statistic;
  arm.fd_error = fd_error(sweep.seeds().front(), spec, bugged);
  arm.golden = golden_record(spec, bugged);
  return arm;
}

}  // namespace

void spice::claims::physics_validation(Claim& claim) {
  std::printf("testkit sensitivity: %.0f%% force-scaling bug\n", kEpsilonBug * 100);
  std::printf("well array, 8 seeds x %zu snapshots per arm; gates: z < 4, "
              "FD < 2e-5, golden NormBounded\n\n",
              kSnapshots);

  const Arm clean = run_arm(false);
  const Arm bugged = run_arm(true);
  const GoldenDrift drift = compare_golden(bugged.golden, clean.golden,
                                           GoldenLevel::NormBounded);

  std::printf("detector                           clean        bugged\n");
  std::printf("configurational equipartition z    %-12.2f %.2f\n", clean.equipartition_z,
              bugged.equipartition_z);
  std::printf("force vs -dE/dx relative error     %-12.2e %.2e\n", clean.fd_error,
              bugged.fd_error);
  std::printf("golden record (vs clean)           %-12s %s\n\n", "reference",
              drift.ok ? "identical" : "DRIFT");

  const bool clean_ok = std::abs(clean.equipartition_z) < 4.0 && clean.fd_error < 2e-5;
  const int detections = static_cast<int>(std::abs(bugged.equipartition_z) >= 4.0) +
                         static_cast<int>(bugged.fd_error >= 2e-5) +
                         static_cast<int>(!drift.ok);

  claim.set_group("clean", {{"equipartition_z", clean.equipartition_z},
                           {"fd_error", clean.fd_error}});
  claim.set_group("bugged", {{"equipartition_z", bugged.equipartition_z},
                            {"fd_error", bugged.fd_error}});

  claim.check(clean_ok, "clean build passes every gate");
  claim.check(detections >= 2, "bugged build trips >= 2 independent gates");
  std::printf("(%d of 3 detectors flagged the bug)\n", detections);
}
