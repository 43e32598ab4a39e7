#pragma once
// Structure-of-arrays dynamic state for the MD engine.
//
// The force hot path (kernels over bonded terms and cell-grid nonbonded
// pairs) reads positions and per-particle parameters millions of times per
// step. Storing them as packed parallel arrays — instead of an
// array-of-structs whose Particle records drag a std::string name through
// every cache line — keeps those reads dense and vectorizable. The charge,
// sigma (WCA radius) and 1/m columns are cached out of the Topology once
// at construction; the Topology stays the source of truth for everything
// structural (bonds, exclusions, names).
//
// Storage: the nine dynamic columns live in a StateArena — a standalone
// state owns a private single-replica arena; an ensemble replica binds to
// one slot of a shared replica-major slab (state_arena.hpp), so batched
// and standalone engines run the identical code path over identical
// per-column layouts. The cached parameter columns and the AoS mirrors
// stay per-state (replicas share a topology but may not share mirrors —
// the lazy sync is per-replica state).
//
// Conversion shims: positions()/velocities()/forces() return AoS
// std::span<const Vec3> views backed by lazily refreshed mirror buffers,
// so every existing consumer (ForceContribution implementations,
// observables, viz writers, checkpoint serialization) keeps working
// unchanged. The mirrors are invalidated whenever a mutable SoA span is
// handed out and re-synced on the next AoS read.
//
// Threading contract: the lazy AoS sync mutates a cache, so the FIRST
// AoS read after a SoA write must happen on one thread (the engine syncs
// positions once per force evaluation, before the parallel slice phase);
// concurrent reads of an already-synced view are safe.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "md/state_arena.hpp"

namespace spice::md {

class Topology;

class SystemState {
 public:
  SystemState() = default;

  /// Size the arrays for `topology` and cache its per-particle columns
  /// (charge, sigma, mass, 1/m). Dynamic arrays are zero-initialized and
  /// live in a private single-replica arena.
  void reset(const Topology& topology);

  /// Bind this state to slot `replica` of a shared ensemble arena instead
  /// of a private one. The slot's columns are zeroed; everything else
  /// matches reset(topology).
  void reset(const Topology& topology, std::shared_ptr<StateArena> arena,
             std::size_t replica);

  [[nodiscard]] std::size_t size() const { return n_; }

  // --- SoA views (canonical storage) -----------------------------------
  // Mutable spans invalidate the corresponding AoS mirror.
  [[nodiscard]] std::span<double> x() { positions_synced_ = false; return col(StateArena::kX); }
  [[nodiscard]] std::span<double> y() { positions_synced_ = false; return col(StateArena::kY); }
  [[nodiscard]] std::span<double> z() { positions_synced_ = false; return col(StateArena::kZ); }
  [[nodiscard]] std::span<double> vx() { velocities_synced_ = false; return col(StateArena::kVx); }
  [[nodiscard]] std::span<double> vy() { velocities_synced_ = false; return col(StateArena::kVy); }
  [[nodiscard]] std::span<double> vz() { velocities_synced_ = false; return col(StateArena::kVz); }
  [[nodiscard]] std::span<double> fx() { forces_synced_ = false; return col(StateArena::kFx); }
  [[nodiscard]] std::span<double> fy() { forces_synced_ = false; return col(StateArena::kFy); }
  [[nodiscard]] std::span<double> fz() { forces_synced_ = false; return col(StateArena::kFz); }

  [[nodiscard]] std::span<const double> x() const { return col(StateArena::kX); }
  [[nodiscard]] std::span<const double> y() const { return col(StateArena::kY); }
  [[nodiscard]] std::span<const double> z() const { return col(StateArena::kZ); }
  [[nodiscard]] std::span<const double> vx() const { return col(StateArena::kVx); }
  [[nodiscard]] std::span<const double> vy() const { return col(StateArena::kVy); }
  [[nodiscard]] std::span<const double> vz() const { return col(StateArena::kVz); }
  [[nodiscard]] std::span<const double> fx() const { return col(StateArena::kFx); }
  [[nodiscard]] std::span<const double> fy() const { return col(StateArena::kFy); }
  [[nodiscard]] std::span<const double> fz() const { return col(StateArena::kFz); }

  // --- cached per-particle parameters ----------------------------------
  [[nodiscard]] std::span<const double> charge() const { return charge_; }
  /// Per-particle WCA radius; a pair's sigma is sigma()[i] + sigma()[j].
  [[nodiscard]] std::span<const double> sigma() const { return sigma_; }
  [[nodiscard]] std::span<const double> mass() const { return mass_; }
  [[nodiscard]] std::span<const double> inv_mass() const { return inv_mass_; }

  // --- AoS conversion shims ---------------------------------------------
  [[nodiscard]] std::span<const Vec3> positions() const;
  [[nodiscard]] std::span<const Vec3> velocities() const;
  [[nodiscard]] std::span<const Vec3> forces() const;

  void set_positions(std::span<const Vec3> xs);
  void set_velocities(std::span<const Vec3> vs);

 private:
  static void scatter(std::span<const Vec3> src, std::span<double> x,
                      std::span<double> y, std::span<double> z);
  static void gather(std::span<const double> x, std::span<const double> y,
                     std::span<const double> z, std::vector<Vec3>& out);

  [[nodiscard]] std::span<double> col(std::size_t c) {
    return {arena_->column(c, replica_), n_};
  }
  [[nodiscard]] std::span<const double> col(std::size_t c) const {
    return {arena_->column(c, replica_), n_};
  }

  std::size_t n_ = 0;
  std::shared_ptr<StateArena> arena_;
  std::size_t replica_ = 0;
  std::vector<double> charge_, sigma_, mass_, inv_mass_;

  mutable std::vector<Vec3> positions_aos_, velocities_aos_, forces_aos_;
  mutable bool positions_synced_ = false;
  mutable bool velocities_synced_ = false;
  mutable bool forces_synced_ = false;
};

}  // namespace spice::md
