#include "smd/pulling.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "md/ensemble_engine.hpp"
#include "md/observables.hpp"

namespace spice::smd {

double SmdParams::spring_internal() const {
  return units::spring_pn_per_angstrom(spring_pn_per_angstrom);
}

double SmdParams::velocity_internal() const {
  return units::velocity_angstrom_per_ns(velocity_angstrom_per_ns);
}

ConstantVelocityPull::ConstantVelocityPull(SmdParams params) : params_(std::move(params)) {
  SPICE_REQUIRE(params_.spring_pn_per_angstrom > 0.0, "SMD spring constant must be positive");
  SPICE_REQUIRE(params_.velocity_angstrom_per_ns > 0.0, "SMD velocity must be positive");
  SPICE_REQUIRE(!params_.smd_atoms.empty(), "SMD needs at least one pulled atom");
  SPICE_REQUIRE(params_.direction.norm() > 0.0, "SMD direction must be non-zero");
  direction_ = params_.direction.normalized();
  kappa_ = params_.spring_internal();
  velocity_ = params_.velocity_internal();
}

void ConstantVelocityPull::attach(const spice::md::Engine& engine) {
  com_reference_ =
      spice::md::center_of_mass(engine.positions(), engine.topology(), params_.smd_atoms);
  attach_time_ = engine.time();
  last_time_ = attach_time_;
  last_lambda_ = 0.0;
  last_xi_ = 0.0;
  work_ = 0.0;
  selection_mass_ = 0.0;
  for (const auto i : params_.smd_atoms) {
    selection_mass_ += engine.topology().particles()[i].mass;
  }
  attached_ = true;
}

double ConstantVelocityPull::begin_evaluation(std::span<const Vec3> positions,
                                              const spice::md::Topology& topology, double time) {
  SPICE_REQUIRE(attached_, "ConstantVelocityPull used before attach()");
  const Vec3 com = spice::md::center_of_mass(positions, topology, params_.smd_atoms);
  const double xi = dot(com - com_reference_, direction_);
  const double lambda =
      velocity_ * std::max(0.0, time - attach_time_ - params_.hold_ps);

  // Accumulate external work dW = κ(λ − ξ) dλ only when simulation time
  // has advanced (the engine may evaluate forces repeatedly at the same
  // time, e.g. for energy reports; those must not double-count). During a
  // hold phase dλ = 0, so no work accrues.
  if (time > last_time_) {
    work_ += kappa_ * (lambda - xi) * (lambda - last_lambda_);
    last_time_ = time;
  }
  last_lambda_ = lambda;
  last_xi_ = xi;
  last_f_com_ = kappa_ * (lambda - xi);

  const double dev = xi - lambda;
  return 0.5 * kappa_ * dev * dev;
}

double ConstantVelocityPull::accumulate_range(std::span<const Vec3> /*positions*/,
                                              const spice::md::Topology& topology,
                                              double /*time*/, std::size_t begin,
                                              std::size_t end, std::span<Vec3> forces) {
  // Spring force on the COM along the pull direction, distributed
  // mass-weighted over the SMD atoms (a force f on the COM corresponds to
  // f·(m_i / M) on each member). Each range touches only its own atoms.
  const auto& particles = topology.particles();
  for (const auto i : params_.smd_atoms) {
    if (i < begin || i >= end) continue;
    forces[i] += direction_ * (last_f_com_ * particles[i].mass / selection_mass_);
  }
  return 0.0;
}

double ConstantVelocityPull::spring_force() const { return kappa_ * (last_lambda_ - last_xi_); }

ConstantForcePull::ConstantForcePull(std::vector<std::uint32_t> atoms, Vec3 force)
    : atoms_(std::move(atoms)), force_(force) {
  SPICE_REQUIRE(!atoms_.empty(), "constant-force pull needs at least one atom");
}

double ConstantForcePull::begin_evaluation(std::span<const Vec3> positions,
                                           const spice::md::Topology& topology,
                                           double /*time*/) {
  selection_mass_ = 0.0;
  const auto& particles = topology.particles();
  for (const auto i : atoms_) {
    SPICE_REQUIRE(i < positions.size(), "constant-force atom out of range");
    selection_mass_ += particles[i].mass;
  }
  // A constant force has no well-defined absolute potential; report 0 so
  // it does not pollute energy-conservation checks (documented behaviour).
  return 0.0;
}

double ConstantForcePull::accumulate_range(std::span<const Vec3> /*positions*/,
                                           const spice::md::Topology& topology, double /*time*/,
                                           std::size_t begin, std::size_t end,
                                           std::span<Vec3> forces) {
  const auto& particles = topology.particles();
  for (const auto i : atoms_) {
    if (i < begin || i >= end) continue;
    forces[i] += force_ * (particles[i].mass / selection_mass_);
  }
  return 0.0;
}

namespace {

PullSample sample_of(const ConstantVelocityPull& pull, double time) {
  return {time, pull.lambda(), pull.xi(), pull.spring_force(), pull.work()};
}

/// The one pull schedule: hold_ps plus distance/v of anchor travel,
/// rounded up to whole steps; `record` runs at attach (λ = 0), after every
/// `sample_every` steps and always after the final step, and `advance(n)`
/// steps the engine(s) n times between records. Returns the step count.
template <class Advance, class Record>
std::uint64_t drive_pull(const SmdParams& params, double dt, double distance,
                         std::size_t sample_every, Advance&& advance, Record&& record) {
  SPICE_REQUIRE(distance > 0.0, "pull distance must be positive");
  SPICE_REQUIRE(sample_every > 0, "sample_every must be positive");
  const auto total_steps = static_cast<std::uint64_t>(
      std::ceil((distance / params.velocity_internal() + params.hold_ps) / dt));
  record();
  for (std::uint64_t done = 0; done < total_steps;) {
    const std::uint64_t next = std::min<std::uint64_t>(total_steps, done + sample_every);
    advance(next - done);
    done = next;
    record();
  }
  return total_steps;
}

}  // namespace

PullResult run_pull(spice::md::Engine& engine, ConstantVelocityPull& pull, double distance,
                    std::size_t sample_every) {
  SPICE_REQUIRE(pull.attached(), "run_pull needs an attached pull");
  PullResult result;
  result.steps = drive_pull(
      pull.params(), engine.config().dt, distance, sample_every,
      [&](std::uint64_t n) { engine.step(n); },
      [&] { result.samples.push_back(sample_of(pull, engine.time())); });
  result.pulled_distance = pull.lambda();
  return result;
}

std::vector<PullResult> run_ensemble_pull(
    spice::md::EnsembleEngine& ensemble,
    std::span<const std::shared_ptr<ConstantVelocityPull>> pulls, double distance,
    std::size_t sample_every) {
  SPICE_REQUIRE(pulls.size() == ensemble.size(), "one pull per ensemble replica");
  // The first pass checks pulls[0] before the protocol check reads it.
  for (const auto& pull : pulls) {
    SPICE_REQUIRE(pull != nullptr && pull->attached(), "run_ensemble_pull needs attached pulls");
    SPICE_REQUIRE(pull->params().velocity_internal() == pulls[0]->params().velocity_internal() &&
                      pull->params().hold_ps == pulls[0]->params().hold_ps,
                  "ensemble pulls must share one protocol");
  }

  // All replicas step in lock-step between sample boundaries, so each one
  // visits exactly the steps run_pull records on a standalone engine.
  std::vector<PullResult> results(pulls.size());
  const std::uint64_t steps = drive_pull(
      pulls[0]->params(), ensemble.replica(0).config().dt, distance, sample_every,
      [&](std::uint64_t n) { ensemble.step_all(n); },
      [&] {
        for (std::size_t r = 0; r < pulls.size(); ++r) {
          results[r].samples.push_back(sample_of(*pulls[r], ensemble.replica(r).time()));
        }
      });
  for (std::size_t r = 0; r < pulls.size(); ++r) {
    results[r].pulled_distance = pulls[r]->lambda();
    results[r].steps = steps;
  }
  return results;
}

std::vector<PullResult> run_pulls(spice::md::EnsembleEngine& ensemble, const SmdParams& params,
                                  double distance, std::size_t sample_every) {
  std::vector<std::shared_ptr<ConstantVelocityPull>> pulls;
  pulls.reserve(ensemble.size());
  for (std::size_t r = 0; r < ensemble.size(); ++r) {
    auto pull = std::make_shared<ConstantVelocityPull>(params);
    pull->attach(ensemble.replica(r));
    ensemble.add_contribution(r, pull);
    pulls.push_back(std::move(pull));
  }
  return run_ensemble_pull(ensemble, pulls, distance, sample_every);
}

}  // namespace spice::smd
