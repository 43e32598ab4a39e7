#include "steering/haptic.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace spice::steering {

namespace {
constexpr double kStiffness = 2.0;  ///< hand-spring stiffness, kcal/mol/Å²
static_assert(kStiffness > 0.0, "haptic stiffness must be positive");
}  // namespace

HapticDevice::HapticDevice(HapticParams params)
    : params_(params), rng_(spice::Rng::stream(params.seed, 0x686170 /*"hap"*/)) {
  SPICE_REQUIRE(params_.max_force > 0.0, "haptic force limit must be positive");
}

std::optional<Vec3> HapticDevice::update(const FrameView& view) {
  const double target = params_.target_z + rng_.gaussian(0.0, params_.tremor_stddev);
  double fz = kStiffness * (target - view.steered_com_z);
  fz = std::clamp(fz, -params_.max_force, params_.max_force);
  force_log_.add(std::abs(fz));
  if (std::abs(fz) < 1e-6) return std::nullopt;
  return Vec3{0.0, 0.0, fz};
}

double HapticDevice::suggested_spring_pn() const {
  // Heuristic used by the pipeline's interactive phase: the SMD spring
  // should hold the selection against force fluctuations of the felt
  // magnitude over ~1 Å, i.e. κ ≈ mean|F| / 1 Å, expressed in pN/Å.
  const double kappa_internal = std::max(force_log_.mean(), 0.1);
  return spice::units::spring_to_pn_per_angstrom(kappa_internal);
}

VisualizerPolicy HapticDevice::as_policy() {
  return [this](const FrameView& view) { return update(view); };
}

}  // namespace spice::steering
