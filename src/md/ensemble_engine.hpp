#pragma once
// Batched ensemble MD: N replicas of one topology stepped together.
//
// SPICE campaigns run hundreds of independent SMD replicas per parameter
// combo; one Engine per replica repeats every per-engine allocation and
// scatters the hot arrays across the heap. EnsembleEngine keeps the full
// Engine abstraction per replica — own neighbour list (so each replica's
// rebuild decision tracks its OWN displacement since build), own force
// workspace, own contributions, own RNG seed — but binds all dynamic state
// (the position, velocity and force Vec3 rows) into one shared
// replica-major StateArena slab (state_arena.hpp) and steps the replicas
// from a single thread pool.
//
// Determinism contract: replica r of an EnsembleEngine produces the
// bit-identical trajectory (and checkpoint bytes) of a standalone Engine
// constructed by master.clone(seeds[r]), for any ensemble thread count —
// replicas are data-disjoint (no kernel reads past its own replica's rows:
// the AVX2 row load of the last particle stays inside the row's pad) and
// each one is stepped by exactly one worker
// with the engine-internal slice pipeline at threads = 1. The SIMD level
// is inherited from the master's config and resolved once; pinning
// Request::Scalar runs the scalar batch kernels, whose trajectories are
// host-independent (the golden records' level).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "md/engine.hpp"

namespace spice {
class ThreadPool;
}

namespace spice::md {

struct EnsembleConfig {
  /// Compute threads stepping replicas, the caller included (replica-level
  /// parallelism; each replica's internal pipeline runs serially to keep
  /// the ensemble oversubscription-free and bit-identical to standalone
  /// threads = 1 engines).
  std::size_t threads = 1;
};

class EnsembleEngine {
 public:
  /// Build `seeds.size()` replicas of `master`: same topology, parameters
  /// and current dynamic state; replica r reseeded with seeds[r]. The
  /// master's contribution list is shared (stateless potentials only —
  /// replace stateful couplings per replica, as with Engine::clone).
  EnsembleEngine(const Engine& master, std::span<const std::uint64_t> seeds,
                 EnsembleConfig config = {});
  ~EnsembleEngine();

  EnsembleEngine(EnsembleEngine&&) noexcept;
  EnsembleEngine& operator=(EnsembleEngine&&) noexcept;
  EnsembleEngine(const EnsembleEngine&) = delete;
  EnsembleEngine& operator=(const EnsembleEngine&) = delete;

  [[nodiscard]] std::size_t size() const { return replicas_.size(); }
  [[nodiscard]] Engine& replica(std::size_t r) { return replicas_[r]; }
  [[nodiscard]] const Engine& replica(std::size_t r) const { return replicas_[r]; }

  /// Register an extra force on replica `r` only (e.g. that replica's SMD
  /// spring). Must not be called while step_all is running.
  void add_contribution(std::size_t r, std::shared_ptr<ForceContribution> contribution);
  /// Unregister from replica `r` (no-op if absent).
  void remove_contribution(std::size_t r, const ForceContribution* contribution);

  /// Advance every replica `n` timesteps. Replicas are distributed over
  /// the ensemble workers in contiguous deterministic ranges.
  void step_all(std::size_t n = 1);

  /// Snapshot replica `r` (byte-compatible with standalone Engine
  /// checkpoints — same format v2).
  [[nodiscard]] Checkpoint checkpoint(std::size_t r) const {
    return replicas_[r].checkpoint();
  }

 private:
  std::vector<Engine> replicas_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace spice::md
