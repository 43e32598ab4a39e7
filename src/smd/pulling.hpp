#pragma once
// Steered molecular dynamics (SMD).
//
// Constant-velocity pulling: a fictitious "pulling atom" moves along the
// pull direction at velocity v and is coupled by a harmonic spring of
// stiffness κ to the reaction coordinate ξ — the projection of the centre
// of mass of the SMD atoms onto the pull direction, relative to its value
// when the pull was attached (the paper's "displacement of COM").
//
//   λ(t) = v·t            (spring anchor)
//   U(ξ, t) = ½ κ (ξ − λ(t))²
//   dW      = ∂U/∂λ · dλ = κ (λ − ξ) v dt   (accumulated external work)
//
// κ and v are THE two free parameters the paper's Fig. 4 optimizes; the
// constructors accept them in the paper's units (pN/Å, Å/ns).
//
// Constant-force mode (paper's IMD phase: "apply a force to a subset of
// atoms", haptic exploration) is provided by ConstantForcePull.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "md/engine.hpp"
#include "md/force_contribution.hpp"

namespace spice::md {
class EnsembleEngine;
}

namespace spice::smd {

struct SmdParams {
  double spring_pn_per_angstrom = 100.0;  ///< κ in paper units (pN/Å)
  double velocity_angstrom_per_ns = 12.5; ///< v in paper units (Å/ns)
  Vec3 direction{0.0, 0.0, -1.0};         ///< pull direction (normalized internally)
  std::vector<std::uint32_t> smd_atoms;   ///< atoms coupled to the spring
  /// Hold the anchor at λ = 0 for this long after attach before moving —
  /// equilibrates the system WITH the spring so the pull starts from the
  /// λ = 0 equilibrium ensemble Jarzynski's identity assumes. No work
  /// accumulates while the anchor is stationary (dλ = 0). Offline work
  /// pipelines must preserve this: re-integrating the recorded force
  /// series over time (F·v̄·dt) counts the settle-phase forces as work;
  /// fe::reintegrate_from_force integrates over the anchor path instead,
  /// which is what makes WorkSource::SampledForce hold-safe.
  double hold_ps = 0.0;

  /// κ in internal units (kcal/mol/Å²).
  [[nodiscard]] double spring_internal() const;
  /// v in internal units (Å/ps).
  [[nodiscard]] double velocity_internal() const;
};

/// One recorded point of a pull.
struct PullSample {
  double time = 0.0;    ///< ps since attach
  double lambda = 0.0;  ///< spring anchor displacement, Å
  double xi = 0.0;      ///< COM displacement along the pull direction, Å
  double force = 0.0;   ///< instantaneous spring force κ(λ−ξ), kcal/mol/Å
  double work = 0.0;    ///< accumulated external work, kcal/mol
};

/// Constant-velocity SMD spring. Register with Engine::add_contribution,
/// then call attach() once the initial state is prepared.
class ConstantVelocityPull final : public spice::md::ForceContribution {
 public:
  explicit ConstantVelocityPull(SmdParams params);

  /// Fix the reference COM and start the clock at the engine's current
  /// state. Must be called before the first pulled step.
  void attach(const spice::md::Engine& engine);

  /// Serial phase: advance the anchor, measure ξ, accumulate work.
  double begin_evaluation(std::span<const Vec3> positions,
                          const spice::md::Topology& topology, double time) override;
  /// Parallel phase: mass-weighted spring force on selection atoms in range.
  double accumulate_range(std::span<const Vec3> positions,
                          const spice::md::Topology& topology, double time,
                          std::size_t begin, std::size_t end,
                          std::span<Vec3> forces) override;
  [[nodiscard]] std::string name() const override { return "smd-cv"; }

  [[nodiscard]] const SmdParams& params() const { return params_; }
  [[nodiscard]] bool attached() const { return attached_; }
  /// Current anchor displacement λ (Å since attach).
  [[nodiscard]] double lambda() const { return last_lambda_; }
  /// Current reaction coordinate ξ (Å since attach).
  [[nodiscard]] double xi() const { return last_xi_; }
  /// Accumulated external work, kcal/mol.
  [[nodiscard]] double work() const { return work_; }
  /// Spring force at the last evaluation, kcal/mol/Å.
  [[nodiscard]] double spring_force() const;

 private:
  SmdParams params_;
  Vec3 direction_;
  double kappa_ = 0.0;     // internal units
  double velocity_ = 0.0;  // internal units
  bool attached_ = false;
  Vec3 com_reference_;
  double attach_time_ = 0.0;
  double last_time_ = 0.0;
  double last_lambda_ = 0.0;
  double last_xi_ = 0.0;
  double work_ = 0.0;
  double selection_mass_ = 0.0;
  double last_f_com_ = 0.0;  ///< spring force on the COM from begin_evaluation
};

/// Constant external force on a selection, mass-distributed (IMD mode).
class ConstantForcePull final : public spice::md::ForceContribution {
 public:
  /// force: total force vector (kcal/mol/Å) applied to the selection's COM.
  ConstantForcePull(std::vector<std::uint32_t> atoms, Vec3 force);

  void set_force(const Vec3& force) { force_ = force; }
  [[nodiscard]] const Vec3& force() const { return force_; }

  double begin_evaluation(std::span<const Vec3> positions,
                          const spice::md::Topology& topology, double time) override;
  double accumulate_range(std::span<const Vec3> positions,
                          const spice::md::Topology& topology, double time,
                          std::size_t begin, std::size_t end,
                          std::span<Vec3> forces) override;
  [[nodiscard]] std::string name() const override { return "smd-cf"; }

 private:
  std::vector<std::uint32_t> atoms_;
  Vec3 force_;
  double selection_mass_ = 0.0;  ///< computed once per evaluation
};

/// Result of a completed constant-velocity pull.
struct PullResult {
  std::vector<PullSample> samples;  ///< one per sampled step, time-ordered
  double pulled_distance = 0.0;     ///< final λ, Å
  std::uint64_t steps = 0;          ///< MD steps taken
};

/// Drive `engine` until the spring anchor has advanced by `distance` Å,
/// recording a sample every `sample_every` steps (and always the final
/// state). The pull must already be attached and registered with the
/// engine. For a single live engine (steering, harness pulls); a set of
/// pulls from one master runs through run_pulls.
[[nodiscard]] PullResult run_pull(spice::md::Engine& engine, ConstantVelocityPull& pull,
                                  double distance, std::size_t sample_every = 10);

/// Batched variant: drive every replica of `ensemble` through the same
/// protocol, pulls[r] being replica r's (already attached and registered)
/// spring. All pulls must share dt/velocity/hold so the replicas stay in
/// lock-step; the per-replica sample cadence — and, because each ensemble
/// replica is bit-identical to a standalone clone, the samples themselves —
/// match run_pull on N independent engines exactly.
[[nodiscard]] std::vector<PullResult> run_ensemble_pull(
    spice::md::EnsembleEngine& ensemble,
    std::span<const std::shared_ptr<ConstantVelocityPull>> pulls, double distance,
    std::size_t sample_every = 10);

/// Attach a fresh `params` spring to every replica of `ensemble` at its
/// current state and run them all through run_ensemble_pull. Result r
/// equals run_pull with the same spring on the standalone clone that
/// replica r mirrors (EnsembleEngine's determinism contract).
[[nodiscard]] std::vector<PullResult> run_pulls(spice::md::EnsembleEngine& ensemble,
                                                const SmdParams& params, double distance,
                                                std::size_t sample_every = 10);

}  // namespace spice::smd
