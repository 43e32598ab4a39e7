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
  for (std::size_t c = 0; c < StateArena::kColumns; ++c) {
    auto span = col(c);
    std::fill(span.begin(), span.end(), 0.0);
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
  positions_aos_.assign(n_, Vec3{});
  velocities_aos_.assign(n_, Vec3{});
  forces_aos_.assign(n_, Vec3{});
  positions_synced_ = velocities_synced_ = forces_synced_ = true;
}

void SystemState::scatter(std::span<const Vec3> src, std::span<double> x,
                          std::span<double> y, std::span<double> z) {
  for (std::size_t i = 0; i < src.size(); ++i) {
    x[i] = src[i].x;
    y[i] = src[i].y;
    z[i] = src[i].z;
  }
}

void SystemState::gather(std::span<const double> x, std::span<const double> y,
                         std::span<const double> z, std::vector<Vec3>& out) {
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = {x[i], y[i], z[i]};
}

std::span<const Vec3> SystemState::positions() const {
  if (!positions_synced_) {
    gather(x(), y(), z(), positions_aos_);
    positions_synced_ = true;
  }
  return positions_aos_;
}

std::span<const Vec3> SystemState::velocities() const {
  if (!velocities_synced_) {
    gather(vx(), vy(), vz(), velocities_aos_);
    velocities_synced_ = true;
  }
  return velocities_aos_;
}

std::span<const Vec3> SystemState::forces() const {
  if (!forces_synced_) {
    gather(fx(), fy(), fz(), forces_aos_);
    forces_synced_ = true;
  }
  return forces_aos_;
}

void SystemState::set_positions(std::span<const Vec3> xs) {
  SPICE_REQUIRE(xs.size() == n_, "position count mismatch");
  scatter(xs, col(StateArena::kX), col(StateArena::kY), col(StateArena::kZ));
  positions_aos_.assign(xs.begin(), xs.end());
  positions_synced_ = true;
}

void SystemState::set_velocities(std::span<const Vec3> vs) {
  SPICE_REQUIRE(vs.size() == n_, "velocity count mismatch");
  scatter(vs, col(StateArena::kVx), col(StateArena::kVy), col(StateArena::kVz));
  velocities_aos_.assign(vs.begin(), vs.end());
  velocities_synced_ = true;
}

}  // namespace spice::md
