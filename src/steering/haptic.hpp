#pragma once
// Haptic device model.
//
// The paper uses "haptic devices within the framework for the first time
// as if they were just additional computing resources" (§II) — during the
// interactive phase they give "an estimate of force values as well as ...
// suitable constraints to place" (§III). The model: the operator holds a
// stylus coupled to the steered selection; the device runs a local 1 kHz
// control loop that renders the (delayed) simulation force to the hand and
// emits force commands toward a hand-target position. Device output is the
// VisualizerPolicy the ImdSession consumes, plus a force-magnitude log
// that the SPICE pipeline uses to bracket κ (the "estimate of force
// values" the paper gets from this phase).

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "common/vec3.hpp"
#include "steering/imd.hpp"

namespace spice::steering {

struct HapticParams {
  double max_force = 60.0;       ///< device force saturation, kcal/mol/Å
  double target_z = -20.0;       ///< where the operator tries to move the COM
  double tremor_stddev = 0.3;    ///< human hand noise on the target, Å
  std::uint64_t seed = 7;
};

/// Stateful haptic controller; produces a steering force per frame and
/// records the forces "felt" so the interactive phase can report a force
/// scale for parameter bracketing.
class HapticDevice {
 public:
  explicit HapticDevice(HapticParams params);

  /// Per-frame controller: force toward the target, saturated at the
  /// device limit, with hand tremor.
  [[nodiscard]] std::optional<Vec3> update(const FrameView& view);

  /// Statistics of the commanded force magnitudes (kcal/mol/Å).
  [[nodiscard]] const spice::RunningStats& force_log() const { return force_log_; }

  /// Suggested SMD spring scale from the interactive session (paper §III:
  /// the haptic phase "helps in choosing the initial range of
  /// parameters"): stiff enough to dominate the felt force gradient.
  [[nodiscard]] double suggested_spring_pn() const;

  /// Bind as a visualizer policy.
  [[nodiscard]] VisualizerPolicy as_policy();

 private:
  HapticParams params_;
  spice::Rng rng_;
  spice::RunningStats force_log_;
};

}  // namespace spice::steering
