#pragma once
// Structural observables over an MD state: centre of mass of a selection
// and the per-bond extension profile used to reproduce the Fig. 3
// observation that the DNA strand stretches as it approaches the pore
// constriction.

#include <cstdint>
#include <span>
#include <vector>

#include "common/vec3.hpp"

namespace spice::md {

class Topology;

/// Mass-weighted centre of mass of the selected particles.
/// Requires a non-empty selection with positive total mass.
[[nodiscard]] Vec3 center_of_mass(std::span<const Vec3> positions, const Topology& topology,
                                  std::span<const std::uint32_t> selection);

/// Centre of mass of all particles.
[[nodiscard]] Vec3 center_of_mass(std::span<const Vec3> positions, const Topology& topology);

/// One entry per bond: the bond's current length, its rest length, and the
/// z-coordinate of the bond midpoint (so extension can be plotted vs the
/// pore axis).
struct BondExtension {
  double length = 0.0;
  double rest_length = 0.0;
  double mid_z = 0.0;
  [[nodiscard]] double strain() const {
    return rest_length > 0.0 ? (length - rest_length) / rest_length : 0.0;
  }
};

[[nodiscard]] std::vector<BondExtension> bond_extension_profile(std::span<const Vec3> positions,
                                                                const Topology& topology);

}  // namespace spice::md
