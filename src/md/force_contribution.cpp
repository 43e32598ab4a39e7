#include "md/force_contribution.hpp"

#include "common/error.hpp"
#include "md/topology.hpp"

namespace spice::md {

double ForceContribution::begin_evaluation(std::span<const Vec3> /*positions*/,
                                           const Topology& /*topology*/, double /*time*/) {
  return 0.0;
}

double PerParticlePotential::accumulate_range(std::span<const Vec3> positions,
                                              const Topology& topology, double /*time*/,
                                              std::size_t begin, std::size_t end,
                                              std::span<Vec3> forces) {
  SPICE_REQUIRE(end <= positions.size() && positions.size() == forces.size(),
                "range/positions/forces size mismatch");
  const auto& particles = topology.particles();
  double energy = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    Vec3 f;
    energy += particle_energy_force(positions[i], particles[i].charge, f);
    forces[i] += f;
  }
  return energy;
}

}  // namespace spice::md
