#pragma once
// Ionic-current model and translocation-event detection.
//
// The experiments motivating the paper (§I refs: Meller et al.,
// Sauer-Budge et al.) drive DNA through alpha-hemolysin with a
// transmembrane voltage and read the translocation off the ionic-current
// blockade: the strand occludes the lumen and the open-pore current drops
// until the molecule passes. This module gives the simulated system the
// same observable:
//
//   * access-resistance model — the pore is a stack of thin conducting
//     slices; slice conductance ∝ open cross-section A(z) = π R(z)² minus
//     the area occluded by any beads in the slice; total conductance from
//     the series sum; I = G·V;
//   * a threshold event detector that turns a current trace into
//     (dwell time, blockade depth) events, the quantities the experiments
//     histogram.

#include <cstddef>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "pore/profile.hpp"

namespace spice::pore {

struct CurrentModelParams {
  double z_lo = -50.0;           ///< integrate the access resistance over [z_lo, z_hi]
  double z_hi = 0.0;
  double voltage_mv = 120.0;
};

/// Pore conductance for the given bead configuration (arbitrary units,
/// proportional to siemens for a fixed conductivity scale).
[[nodiscard]] double pore_conductance(const RadiusProfile& profile,
                                      std::span<const Vec3> positions, double bead_radius,
                                      const CurrentModelParams& params);

/// Ionic current I = G·V (same arbitrary units × mV).
[[nodiscard]] double ionic_current(const RadiusProfile& profile,
                                   std::span<const Vec3> positions, double bead_radius,
                                   const CurrentModelParams& params);

/// Open-pore (no DNA) current — the experimental baseline.
[[nodiscard]] double open_pore_current(const RadiusProfile& profile,
                                       const CurrentModelParams& params);

/// One detected blockade event.
struct BlockadeEvent {
  std::size_t start_index = 0;   ///< first sample below threshold
  std::size_t end_index = 0;     ///< one past the last blocked sample
  double dwell_samples = 0.0;    ///< end − start
  double mean_blockade = 0.0;    ///< mean I/I_open during the event
  double min_blockade = 0.0;     ///< deepest I/I_open during the event
};

/// Detect blockade events in a current trace: an event is a maximal run of
/// samples with I/I_open below `threshold` lasting at least `min_samples`.
[[nodiscard]] std::vector<BlockadeEvent> detect_blockade_events(
    std::span<const double> current_trace, double open_current, double threshold = 0.8,
    std::size_t min_samples = 3);

}  // namespace spice::pore
