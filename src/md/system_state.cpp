#include "md/system_state.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "md/topology.hpp"

namespace spice::md {

void SystemState::reset(const Topology& topology) {
  reset(topology, std::make_shared<StateArena>(topology.particle_count(), 1), 0);
}

void SystemState::reset(const Topology& topology, std::shared_ptr<StateArena> arena,
                        std::size_t replica) {
  SPICE_REQUIRE(arena != nullptr, "SystemState needs an arena");
  SPICE_REQUIRE(arena->particles() == topology.particle_count(),
                "arena particle count does not match topology");
  SPICE_REQUIRE(replica < arena->replicas(), "replica slot out of arena range");
  n_ = topology.particle_count();
  arena_ = std::move(arena);
  replica_ = replica;
  for (std::size_t f = 0; f < StateArena::kFields; ++f) {
    auto span = row(static_cast<StateArena::Field>(f));
    std::fill(span.begin(), span.end(), Vec3{});
  }
  charge_.clear();
  sigma_.clear();
  mass_.clear();
  inv_mass_.clear();
  charge_.reserve(n_);
  sigma_.reserve(n_);
  mass_.reserve(n_);
  inv_mass_.reserve(n_);
  for (const auto& p : topology.particles()) {
    charge_.push_back(p.charge);
    sigma_.push_back(p.radius);
    mass_.push_back(p.mass);
    inv_mass_.push_back(1.0 / p.mass);
  }
}

void SystemState::set_positions(std::span<const Vec3> xs) {
  SPICE_REQUIRE(xs.size() == n_, "position count mismatch");
  std::copy(xs.begin(), xs.end(), positions().begin());
}

void SystemState::set_velocities(std::span<const Vec3> vs) {
  SPICE_REQUIRE(vs.size() == n_, "velocity count mismatch");
  std::copy(vs.begin(), vs.end(), velocities().begin());
}

}  // namespace spice::md
