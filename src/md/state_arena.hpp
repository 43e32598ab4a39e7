#pragma once
// Shared dynamic-state slab for batched replicas.
//
// An EnsembleEngine steps N replicas of one topology; their dynamic state
// (positions, velocities, forces) lives in ONE contiguous allocation of
// Vec3 rows laid out replica-major: field f of replica r occupies
//
//   slab[(f·R + r)·(n + 1) … (f·R + r)·(n + 1) + n)
//
// so each replica sees a dense run of n Vec3s per field (exactly what a
// standalone SystemState provides) while the whole ensemble stays one
// cache-warm block with zero per-replica allocations. A standalone
// SystemState is simply the R = 1 special case — every engine, batched or
// not, runs the same arena-backed code path.
//
// Each row ends in one zero pad Vec3 that nothing writes. The AVX2
// nonbonded kernel loads a particle's position as 32 bytes from &pos[i].x,
// which reads the next row entry's x as a discarded fourth lane; the pad
// keeps that load for particle n−1 inside the replica's own row, so it
// never touches memory another replica's worker is writing. Positions are
// the last field, so the last replica's pad is the slab's final element
// and an ASan build catches a load that overruns it.
//
// The arena holds no locking: replicas touch disjoint sub-ranges, and the
// EnsembleEngine's parallel stepping assigns each replica to exactly one
// worker at a time.

#include <cstddef>
#include <vector>

#include "common/vec3.hpp"

namespace spice::md {

class StateArena {
 public:
  /// Field ids of the three dynamic per-particle rows.
  enum Field : std::size_t { kVelocities = 0, kForces, kPositions, kFields };

  /// Zero-initialized slab for `replicas` replicas of `particles` each.
  StateArena(std::size_t particles, std::size_t replicas)
      : particles_(particles),
        replicas_(replicas),
        slab_(kFields * replicas * (particles + 1)) {}

  [[nodiscard]] std::size_t particles() const { return particles_; }
  [[nodiscard]] std::size_t replicas() const { return replicas_; }

  /// Base of field `f` for replica `r` (a run of particles() Vec3s plus
  /// the pad).
  [[nodiscard]] Vec3* row(Field f, std::size_t r) {
    return slab_.data() + (f * replicas_ + r) * (particles_ + 1);
  }
  [[nodiscard]] const Vec3* row(Field f, std::size_t r) const {
    return slab_.data() + (f * replicas_ + r) * (particles_ + 1);
  }

 private:
  std::size_t particles_;
  std::size_t replicas_;
  std::vector<Vec3> slab_;
};

}  // namespace spice::md
