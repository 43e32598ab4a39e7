#include "steering/steerable.hpp"

#include "common/error.hpp"
#include "md/observables.hpp"

namespace spice::steering {

SteerableSimulation::SteerableSimulation(spice::md::Engine engine,
                                         std::vector<std::uint32_t> steered_atoms)
    : engine_(std::move(engine)), steered_atoms_(std::move(steered_atoms)) {
  SPICE_REQUIRE(!steered_atoms_.empty(), "steerable simulation needs a steered selection");
  steering_force_ =
      std::make_shared<spice::smd::ConstantForcePull>(steered_atoms_, Vec3{});
  engine_.add_contribution(steering_force_);
}

void SteerableSimulation::deliver(const SteeringMessage& message) {
  inbox_.push_back(message);
}

void SteerableSimulation::apply(const SteeringMessage& message) {
  switch (message.type) {
    case MessageType::Pause:
      paused_ = true;
      break;
    case MessageType::Resume:
      paused_ = false;
      break;
    case MessageType::Stop:
      stopped_ = true;
      break;
    case MessageType::SetParameter: {
      const auto it = steerables_.find(message.parameter);
      SPICE_REQUIRE(it != steerables_.end(),
                    "unknown steerable parameter: " + message.parameter);
      it->second(message.value);
      break;
    }
    case MessageType::ApplyForce:
      steering_force_->set_force(message.force);
      break;
    case MessageType::TakeCheckpoint:
      take_checkpoint(message.parameter);
      break;
    case MessageType::CloneRequest:
      // Clones are spawned by the framework via clone_from(); receiving
      // the message only validates the label exists.
      SPICE_REQUIRE(has_checkpoint(message.parameter),
                    "clone request for unknown checkpoint: " + message.parameter);
      break;
    case MessageType::Frame:
    case MessageType::FrameAck:
      break;  // data-plane messages; not applied to the engine
  }
}

std::size_t SteerableSimulation::run(std::size_t steps) {
  std::size_t taken = 0;
  for (std::size_t s = 0; s < steps; ++s) {
    // Step boundary: drain the inbox.
    for (const auto& m : inbox_) apply(m);
    inbox_.clear();
    if (stopped_ || paused_) break;
    engine_.step();
    ++taken;
  }
  return taken;
}

std::map<std::string, double> SteerableSimulation::monitored_parameters() {
  std::map<std::string, double> out;
  out["time_ps"] = engine_.time();
  out["step"] = static_cast<double>(engine_.step_count());
  out["temperature_K"] = engine_.instantaneous_temperature();
  out["kinetic_kcal"] = engine_.kinetic_energy();
  const auto& energies = engine_.compute_energies();
  out["potential_kcal"] = energies.total();
  // Per-contribution external energies (pore vs SMD spring vs steering
  // force are distinguishable on the monitor).
  for (const auto& term : energies.external_terms) {
    out["energy_" + term.name + "_kcal"] = term.energy;
  }
  const Vec3 com =
      spice::md::center_of_mass(engine_.positions(), engine_.topology(), steered_atoms_);
  out["steered_com_z"] = com.z;
  for (const auto& [name, provider] : monitors_) out[name] = provider();
  return out;
}

void SteerableSimulation::publish_monitor(const std::string& name,
                                          std::function<double()> provider) {
  SPICE_REQUIRE(provider != nullptr, "monitor provider must be callable");
  monitors_[name] = std::move(provider);
}

double SteerableSimulation::steered_com_z() const {
  return spice::md::center_of_mass(engine_.positions(), engine_.topology(), steered_atoms_).z;
}

void SteerableSimulation::register_steerable(const std::string& name,
                                             std::function<void(double)> setter) {
  SPICE_REQUIRE(setter != nullptr, "steerable setter must be callable");
  steerables_[name] = std::move(setter);
}

std::vector<std::string> SteerableSimulation::steerable_names() const {
  std::vector<std::string> names;
  names.reserve(steerables_.size());
  for (const auto& [name, setter] : steerables_) names.push_back(name);
  return names;
}

void SteerableSimulation::take_checkpoint(const std::string& label) {
  SPICE_REQUIRE(!label.empty(), "checkpoint needs a label");
  checkpoints_[label] = engine_.checkpoint();
}

bool SteerableSimulation::has_checkpoint(const std::string& label) const {
  return checkpoints_.contains(label);
}

void SteerableSimulation::restore_checkpoint(const std::string& label) {
  const auto it = checkpoints_.find(label);
  SPICE_REQUIRE(it != checkpoints_.end(), "unknown checkpoint: " + label);
  engine_.restore(it->second);
}

SteerableSimulation SteerableSimulation::clone_from(const std::string& label,
                                                    std::uint64_t clone_seed) const {
  const auto it = checkpoints_.find(label);
  SPICE_REQUIRE(it != checkpoints_.end(), "unknown checkpoint: " + label);
  spice::md::Engine cloned = engine_.clone(clone_seed);
  // The clone shares contribution objects with the original; detach the
  // original's steering force so the wrapper can install its own (shared
  // stateless potentials such as the pore stay shared by design).
  cloned.remove_contribution(steering_force_.get());
  cloned.restore(it->second);
  // restore() brings back the snapshot's seed (for exact resume); the
  // clone must instead explore with its own stream.
  cloned.set_seed(clone_seed);
  SteerableSimulation copy(std::move(cloned), steered_atoms_);
  return copy;
}

}  // namespace spice::steering
