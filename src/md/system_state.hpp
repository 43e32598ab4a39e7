#pragma once
// Dynamic state of one MD system: positions, velocities and forces as
// Vec3 rows, plus per-particle parameter columns cached from the Topology.
//
// Every consumer reads the state by particle index — the force kernels
// (bonded terms, cell-grid nonbonded pairs), the ForceContributions, the
// neighbour list, checkpoints, observables and the viz writers — so one
// Vec3 per particle is the only layout: positions()/velocities()/forces()
// are spans straight into the storage, mutable and const. The charge,
// sigma (WCA radius) and 1/m columns are cached out of the Topology once
// at construction, so the hot loops never drag a Particle record (and its
// std::string name) through the cache; the Topology stays the source of
// truth for everything structural (bonds, exclusions, names).
//
// Storage: the three Vec3 rows live in a StateArena — a standalone state
// owns a private single-replica arena; an ensemble replica binds to one
// slot of a shared replica-major slab (state_arena.hpp), so batched and
// standalone engines run the identical code path over identical rows.

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/vec3.hpp"
#include "md/state_arena.hpp"

namespace spice::md {

class Topology;

class SystemState {
 public:
  SystemState() = default;

  /// Size the state for `topology` and cache its per-particle columns
  /// (charge, sigma, mass, 1/m). Dynamic rows are zero-initialized and
  /// live in a private single-replica arena.
  void reset(const Topology& topology);

  /// Bind this state to slot `replica` of a shared ensemble arena instead
  /// of a private one. The slot's rows are zeroed; everything else
  /// matches reset(topology).
  void reset(const Topology& topology, std::shared_ptr<StateArena> arena,
             std::size_t replica);

  [[nodiscard]] std::size_t size() const { return n_; }

  // --- dynamic state (arena rows) ----------------------------------------
  [[nodiscard]] std::span<Vec3> positions() { return row(StateArena::kPositions); }
  [[nodiscard]] std::span<Vec3> velocities() { return row(StateArena::kVelocities); }
  [[nodiscard]] std::span<Vec3> forces() { return row(StateArena::kForces); }
  [[nodiscard]] std::span<const Vec3> positions() const { return row(StateArena::kPositions); }
  [[nodiscard]] std::span<const Vec3> velocities() const {
    return row(StateArena::kVelocities);
  }
  [[nodiscard]] std::span<const Vec3> forces() const { return row(StateArena::kForces); }

  /// Size-checked copies into the position / velocity rows.
  void set_positions(std::span<const Vec3> xs);
  void set_velocities(std::span<const Vec3> vs);

  // --- cached per-particle parameters ----------------------------------
  [[nodiscard]] std::span<const double> charge() const { return charge_; }
  /// Per-particle WCA radius; a pair's sigma is sigma()[i] + sigma()[j].
  [[nodiscard]] std::span<const double> sigma() const { return sigma_; }
  [[nodiscard]] std::span<const double> mass() const { return mass_; }
  [[nodiscard]] std::span<const double> inv_mass() const { return inv_mass_; }

 private:
  [[nodiscard]] std::span<Vec3> row(StateArena::Field f) {
    return {arena_->row(f, replica_), n_};
  }
  [[nodiscard]] std::span<const Vec3> row(StateArena::Field f) const {
    return {std::as_const(*arena_).row(f, replica_), n_};
  }

  std::size_t n_ = 0;
  std::shared_ptr<StateArena> arena_;
  std::size_t replica_ = 0;
  std::vector<double> charge_, sigma_, mass_, inv_mass_;
};

}  // namespace spice::md
