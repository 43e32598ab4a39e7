#include "md/observables.hpp"

#include <numeric>

#include "common/error.hpp"
#include "md/topology.hpp"

namespace spice::md {

Vec3 center_of_mass(std::span<const Vec3> positions, const Topology& topology,
                    std::span<const std::uint32_t> selection) {
  SPICE_REQUIRE(!selection.empty(), "centre of mass of empty selection");
  const auto& particles = topology.particles();
  Vec3 weighted;
  double mass = 0.0;
  for (const std::uint32_t i : selection) {
    SPICE_REQUIRE(i < positions.size(), "selection index out of range");
    weighted += positions[i] * particles[i].mass;
    mass += particles[i].mass;
  }
  SPICE_REQUIRE(mass > 0.0, "selection has zero mass");
  return weighted / mass;
}

Vec3 center_of_mass(std::span<const Vec3> positions, const Topology& topology) {
  std::vector<std::uint32_t> all(positions.size());
  std::iota(all.begin(), all.end(), 0);
  return center_of_mass(positions, topology, all);
}

std::vector<BondExtension> bond_extension_profile(std::span<const Vec3> positions,
                                                  const Topology& topology) {
  std::vector<BondExtension> out;
  out.reserve(topology.bonds().size());
  for (const auto& b : topology.bonds()) {
    BondExtension e;
    e.length = distance(positions[b.i], positions[b.j]);
    e.rest_length = b.r0;
    e.mid_z = 0.5 * (positions[b.i].z + positions[b.j].z);
    out.push_back(e);
  }
  return out;
}

}  // namespace spice::md
