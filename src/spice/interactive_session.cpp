#include "spice/interactive_session.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "common/units.hpp"
#include "steering/messages.hpp"

namespace spice::core {

namespace {
constexpr std::size_t kPulseSteps = 1500;  ///< steps with the force on
constexpr std::size_t kRelaxSteps = 2500;  ///< steps observing the relaxation
constexpr std::size_t kSampleEvery = 10;   ///< COM sampling stride during relaxation
/// Safety factor: pulling slower than (1 Å per `kSamplingMargin`
/// relaxation times) counts as adequately sampled.
constexpr double kSamplingMargin = 5.0;
static_assert(kPulseSteps > 0 && kRelaxSteps > kSampleEvery * 8,
              "exploration needs pulse and relaxation windows");
}  // namespace

ExplorationReport run_exploration(spice::steering::SteerableSimulation& simulation,
                                  const ExplorationConfig& config) {
  SPICE_REQUIRE(!config.probe_forces.empty(), "exploration needs probe forces");

  ExplorationReport report;
  RunningStats response_per_force;
  RunningStats responses;
  std::vector<double> relaxation_trace;

  for (const double force : config.probe_forces) {
    SPICE_REQUIRE(force > 0.0, "probe forces must be positive");
    const double z0 = simulation.steered_com_z();

    // Pulse: constant downward force on the steered selection.
    simulation.deliver(spice::steering::SteeringMessage::apply_force({0, 0, -force}));
    simulation.run(kPulseSteps);
    const double z_pulled = simulation.steered_com_z();
    const double response = z0 - z_pulled;  // positive when pushed down
    responses.add(std::abs(response));
    if (response > 1e-6) response_per_force.add(response / force);

    // Release and record the relaxation trace.
    simulation.deliver(spice::steering::SteeringMessage::apply_force({0, 0, 0}));
    relaxation_trace.clear();
    for (std::size_t s = 0; s < kRelaxSteps; s += kSampleEvery) {
      simulation.run(kSampleEvery);
      relaxation_trace.push_back(simulation.steered_com_z());
    }
    // Integrated autocorrelation time of the relaxing coordinate, in
    // sampling units → ps.
    const double tau_samples = integrated_autocorrelation_time(relaxation_trace);
    const double dt = simulation.engine().config().dt;
    report.com_relaxation_ps =
        std::max(report.com_relaxation_ps,
                 tau_samples * static_cast<double>(kSampleEvery) * dt);
    ++report.probes_run;
  }

  report.mobility = response_per_force.count() > 0 ? response_per_force.mean() : 0.0;
  report.mean_response_a = responses.mean();

  // v_max: an adequately sampled pull spends ≥ margin × τ per Å.
  SPICE_ENSURE(report.com_relaxation_ps > 0.0, "relaxation time came out non-positive");
  const double v_max_internal =
      1.0 / (kSamplingMargin * report.com_relaxation_ps);  // Å/ps
  report.suggested_v_max_ns = units::velocity_to_angstrom_per_ns(v_max_internal);

  // κ bracket: the spring should hold the selection against forces of the
  // probe scale over ~1 Å (lower edge /10, upper ×10, as in the haptic
  // heuristic — the two phases cross-check each other).
  const double force_scale =
      *std::max_element(config.probe_forces.begin(), config.probe_forces.end());
  const double kappa_center_pn = units::spring_to_pn_per_angstrom(force_scale);
  report.suggested_kappa_lo_pn = kappa_center_pn / 10.0;
  report.suggested_kappa_hi_pn = kappa_center_pn * 10.0;
  return report;
}

}  // namespace spice::core
