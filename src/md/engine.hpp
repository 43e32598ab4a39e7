#pragma once
// The MD engine: owns topology, state, force evaluation and integration.
//
// This is the library's stand-in for NAMD (DESIGN.md §2). It supports the
// two integrators the reproduction needs (velocity Verlet for NVE
// validation, Langevin BAOAB for production), deterministic thread-parallel
// force evaluation, pluggable extra forces (pore potential, SMD spring,
// IMD steering) and checkpoint/restore/clone — the RealityGrid features
// the paper relies on for verification-and-validation runs.
//
// Dynamic state lives in a SystemState (Vec3 rows in a StateArena; see
// system_state.hpp) and forces are produced by ForceKernels running in the
// staged slice pipeline of force_kernel.hpp. ForceContributions (the
// external layer: pore potential, SMD springs, steering) ride the same
// pipeline via disjoint particle ranges.
//
// Determinism contract: for a fixed seed and fixed build, trajectories are
// bit-identical regardless of the number of threads. The slice count S(n)
// is a function of the particle count alone (one slice per 32 particles,
// at most 16; see force_slice_count()), slice partitions and reduction
// order are pure functions of the system, and the Langevin noise stream is
// keyed by (seed, particle, step), not by thread. `MdConfig::threads`
// counts compute threads including the caller, capped at S(n): a
// one-slice system (fewer than 33 particles) never leaves the caller.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/vec3.hpp"
#include "md/force_contribution.hpp"
#include "md/force_kernel.hpp"
#include "md/forcefield.hpp"
#include "md/neighbor_list.hpp"
#include "md/system_state.hpp"
#include "md/topology.hpp"

namespace spice {
class ThreadPool;
}

namespace spice::md {

enum class IntegratorKind {
  VelocityVerlet,  ///< NVE; used for energy-conservation validation
  Langevin,        ///< BAOAB; production thermostatted dynamics
};

struct MdConfig {
  double dt = 0.01;            ///< timestep, ps
  double temperature = 300.0;  ///< K (Langevin target)
  double friction = 1.0;       ///< Langevin γ, 1/ps
  IntegratorKind integrator = IntegratorKind::Langevin;
  std::uint64_t seed = 1;      ///< master seed for all stochastic terms
  std::size_t threads = 1;     ///< force-evaluation compute threads (caller included)
  /// SIMD dispatch request, resolved once at engine construction: Auto
  /// follows the process-wide level (SPICE_SIMD env override, else CPU
  /// detection); pinning Scalar selects the all-double scalar entry of the
  /// batch-kernel table, whose bits are host-independent (the goldens').
  simd::Request simd = simd::Request::Auto;
};

/// One external contribution's share of the potential energy.
struct ExternalEnergy {
  std::string name;      ///< ForceContribution::name()
  double energy = 0.0;   ///< kcal/mol
};

/// Per-term potential-energy breakdown from the last force evaluation.
struct EnergyBreakdown {
  double bond = 0.0;
  double angle = 0.0;
  double dihedral = 0.0;
  double nonbonded = 0.0;
  double external = 0.0;  ///< sum over ForceContributions
  /// Per-contribution breakdown of `external`, in registration order
  /// (e.g. pore vs SMD spring energies, distinguishable in reports).
  std::vector<ExternalEnergy> external_terms;
  [[nodiscard]] double total() const {
    return bond + angle + dihedral + nonbonded + external;
  }
};

/// Opaque engine snapshot; restorable on an engine with the same topology.
struct Checkpoint {
  std::vector<std::uint8_t> bytes;
};

class Engine {
 public:
  Engine(Topology topology, NonbondedParams nonbonded, MdConfig config);
  /// Ensemble-replica variant: dynamic state lives in slot `replica` of
  /// `arena` (a shared replica-major slab) instead of a private allocation.
  /// Behaviour is otherwise identical to the three-argument constructor —
  /// EnsembleEngine relies on that equivalence for its bitwise-vs-
  /// standalone determinism contract.
  Engine(Topology topology, NonbondedParams nonbonded, MdConfig config,
         std::shared_ptr<StateArena> arena, std::size_t replica);
  ~Engine();

  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- setup -------------------------------------------------------------
  void set_positions(std::span<const Vec3> xs);
  void set_velocities(std::span<const Vec3> vs);
  /// Draw Maxwell–Boltzmann velocities at the given temperature.
  void initialize_velocities(double temperature_k);
  /// Register an extra force (pore potential, SMD spring, steering force).
  void add_contribution(std::shared_ptr<ForceContribution> contribution);

  /// Unregister a previously added contribution (no-op if absent). Needed
  /// when cloning: clone() shares contribution objects with the original,
  /// which is correct for stateless potentials (the pore) but wrong for
  /// stateful couplings (SMD springs, steering forces) — callers replace
  /// those on the clone.
  void remove_contribution(const ForceContribution* contribution);

  // --- running -----------------------------------------------------------
  /// Advance `n` timesteps.
  void step(std::size_t n = 1);

  // --- inspection ----------------------------------------------------------
  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] const MdConfig& config() const { return config_; }
  [[nodiscard]] std::span<const Vec3> positions() const { return state_.positions(); }
  [[nodiscard]] std::span<const Vec3> velocities() const { return state_.velocities(); }
  [[nodiscard]] std::span<const Vec3> forces() const { return state_.forces(); }
  /// Direct access to the SystemState (kernels, benchmarks, tests).
  [[nodiscard]] const SystemState& state() const { return state_; }
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] std::uint64_t step_count() const { return step_count_; }
  /// SIMD level this engine resolved at construction.
  [[nodiscard]] simd::Level simd_level() const { return simd_level_; }
  /// Slices each force evaluation is split into: S(n) =
  /// min(16, ceil(n / 32)) for n particles, independent of the thread count.
  [[nodiscard]] std::size_t force_slice_count() const { return slice_count_; }

  /// Recompute forces/energies for the current positions and return the
  /// breakdown (also refreshes forces()).
  const EnergyBreakdown& compute_energies();
  [[nodiscard]] const EnergyBreakdown& last_energies() const { return energies_; }
  [[nodiscard]] double kinetic_energy() const;
  /// Instantaneous kinetic temperature, K.
  [[nodiscard]] double instantaneous_temperature() const;
  [[nodiscard]] const NeighborList& neighbor_list() const { return *neighbor_list_; }

  // --- checkpoint / clone -------------------------------------------------
  /// Snapshot dynamic state (positions, velocities, time, step counter).
  [[nodiscard]] Checkpoint checkpoint() const;
  /// Restore a snapshot taken from an engine with identical topology.
  /// Also restores the stochastic seed recorded in the snapshot so that a
  /// restore + step() continuation is bit-identical to the original run.
  void restore(const Checkpoint& snapshot);

  /// Re-seed the stochastic streams (used after restore when a clone
  /// should explore an independent trajectory instead of replaying).
  void set_seed(std::uint64_t seed) { config_.seed = seed; }
  /// Clone this engine: same topology/parameters/state. `clone_seed`
  /// reseeds the stochastic stream so the clone explores an independent
  /// trajectory (the paper's clone-for-exploration use case); passing the
  /// original seed gives a bit-identical continuation.
  [[nodiscard]] Engine clone(std::uint64_t clone_seed) const;

  /// Generalized clone: the copy runs under `config` (caller-adjusted seed,
  /// thread count, …) and, when `arena` is non-null, binds its dynamic
  /// state to slot `replica` of that shared slab. Same contribution-sharing
  /// caveats as clone(). This is the EnsembleEngine construction path.
  [[nodiscard]] Engine clone_with(MdConfig config, std::shared_ptr<StateArena> arena,
                                  std::size_t replica) const;

 private:
  void ensure_forces_current();
  void evaluate_forces();
  void step_velocity_verlet();
  void step_langevin();

  Topology topology_;
  NonbondedParams nonbonded_;
  MdConfig config_;
  simd::Level simd_level_ = simd::Level::Scalar;
  std::size_t slice_count_ = 1;  ///< S(n), fixed at construction

  SystemState state_;
  EnergyBreakdown energies_;
  bool forces_current_ = false;

  double time_ = 0.0;
  std::uint64_t step_count_ = 0;

  std::unique_ptr<NeighborList> neighbor_list_;
  std::vector<std::shared_ptr<ForceContribution>> contributions_;
  std::unique_ptr<ThreadPool> pool_;

  std::vector<std::unique_ptr<ForceKernel>> kernels_;
  ForceWorkspace workspace_;
  std::vector<double> external_base_;  ///< per-contribution begin_evaluation energies
};

}  // namespace spice::md
