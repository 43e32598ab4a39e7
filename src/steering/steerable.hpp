#pragma once
// Grid-enablement of the MD engine: the steering client API.
//
// The paper (§V-B) stresses that NAMD was grid-enabled "by interfacing the
// application codes to suitable grid middleware through well defined
// user-level APIs ... without changing the programming model and with
// minimal changes to the code". SteerableSimulation is that client-side
// interface for our engine: it owns an Engine, exposes monitored and
// steerable parameters, applies steering messages at step boundaries, and
// implements the checkpoint/clone facility the paper uses "for
// verification and validation tests without perturbing the original
// simulation".

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "md/engine.hpp"
#include "smd/pulling.hpp"
#include "steering/messages.hpp"

namespace spice::steering {

class SteerableSimulation {
 public:
  /// Wrap an engine. `steered_atoms` is the selection steering forces act
  /// on (the paper steers the DNA's C3'-atom equivalent).
  SteerableSimulation(spice::md::Engine engine, std::vector<std::uint32_t> steered_atoms);

  // --- running --------------------------------------------------------
  /// Advance up to `steps` MD steps, honouring pause/stop; messages queued
  /// via deliver() are applied at the next step boundary. Returns steps
  /// actually taken.
  std::size_t run(std::size_t steps);

  /// Queue a steering message (takes effect at the next step boundary).
  void deliver(const SteeringMessage& message);

  [[nodiscard]] bool paused() const { return paused_; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  // --- monitored parameters (read-only telemetry) ----------------------
  /// time_ps, step, temperature_K, potential_kcal, steered COM z, …
  [[nodiscard]] std::map<std::string, double> monitored_parameters();

  /// z of the steered selection's COM (cheap; no energy recomputation).
  [[nodiscard]] double steered_com_z() const;

  /// Publish an extra read-only monitor evaluated on every
  /// monitored_parameters() call — how analysis-side diagnostics (the JE
  /// convergence tracker's ΔF / σ_jack / ESS) reach the steering client
  /// without the simulation layer depending on fe. Re-publishing a name
  /// replaces its provider.
  void publish_monitor(const std::string& name, std::function<double()> provider);

  // --- steerable parameters --------------------------------------------
  /// Register a named steerable scalar with a setter applied on
  /// SetParameter messages.
  void register_steerable(const std::string& name, std::function<void(double)> setter);
  [[nodiscard]] std::vector<std::string> steerable_names() const;

  // --- checkpoint / clone ----------------------------------------------
  /// Labelled checkpoints held by the simulation.
  void take_checkpoint(const std::string& label);
  [[nodiscard]] bool has_checkpoint(const std::string& label) const;
  void restore_checkpoint(const std::string& label);
  /// Spawn an independent simulation from a checkpoint; the clone gets its
  /// own stochastic stream (`clone_seed`) so it explores independently.
  [[nodiscard]] SteerableSimulation clone_from(const std::string& label,
                                               std::uint64_t clone_seed) const;

  [[nodiscard]] spice::md::Engine& engine() { return engine_; }
  [[nodiscard]] const spice::md::Engine& engine() const { return engine_; }

 private:
  void apply(const SteeringMessage& message);

  spice::md::Engine engine_;
  std::vector<std::uint32_t> steered_atoms_;
  std::shared_ptr<spice::smd::ConstantForcePull> steering_force_;
  std::vector<SteeringMessage> inbox_;
  std::map<std::string, std::function<void(double)>> steerables_;
  std::map<std::string, std::function<double()>> monitors_;
  std::map<std::string, spice::md::Checkpoint> checkpoints_;
  bool paused_ = false;
  bool stopped_ = false;
};

}  // namespace spice::steering
