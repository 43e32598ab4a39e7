// Interactive steering session — the paper's Fig. 2 architecture end to
// end: a simulation at NCSA and a visualizer + haptic device at UCL
// discover each other through the registry, exchange frames and steering
// commands over a trans-Atlantic lightpath, and use checkpoint/clone for
// what-if exploration without perturbing the main run (§III).

#include <cstdio>
#include <iostream>
#include <memory>

#include "fe/convergence.hpp"
#include "net/network.hpp"
#include "pore/system.hpp"
#include "spice/cost_model.hpp"
#include "steering/haptic.hpp"
#include "steering/imd.hpp"
#include "steering/registry.hpp"
#include "steering/steerable.hpp"
#include "viz/ascii_render.hpp"

using namespace spice;
using namespace spice::steering;

int main() {
  // --- the grid fabric -----------------------------------------------------
  net::Network network(2024);
  network.connect_sites("NCSA", "UCL", net::lightpath_transatlantic());
  const auto sim_host = network.add_host("NCSA");
  const auto viz_host = network.add_host("UCL");

  ServiceRegistry registry;  // the "intermediate grid service" of Fig. 2a
  registry.publish({"namd-sim", ComponentKind::Simulation, sim_host});
  registry.publish({"ucl-viz", ComponentKind::Visualizer, viz_host});
  registry.publish({"ucl-haptics", ComponentKind::HapticDevice, viz_host});
  std::printf("registry: %zu components; simulations visible: %zu\n", registry.size(),
              registry.list(ComponentKind::Simulation).size());

  // --- the steered simulation ----------------------------------------------
  pore::TranslocationConfig config;
  config.dna.nucleotides = 12;
  config.equilibration_steps = 1500;
  config.md.seed = 7;
  auto system = pore::build_translocation_system(config);
  SteerableSimulation simulation(std::move(system.engine), {system.dna_selection.front()});
  simulation.register_steerable("noop_gain", [](double) {});

  std::printf("steerables: ");
  for (const auto& name : simulation.steerable_names()) std::printf("%s ", name.c_str());
  std::printf("\ninitial head COM z = %.2f A\n", simulation.steered_com_z());

  // --- the interactive session ----------------------------------------------
  const core::MdCostModel cost;
  ImdConfig imd;
  imd.total_steps = 1500;
  imd.steps_per_frame = 10;
  imd.seconds_per_step = core::seconds_per_step(cost, 256);  // 256-proc cadence
  imd.frame_bytes = core::frame_bytes(cost);

  HapticParams haptic_params;
  haptic_params.target_z = simulation.steered_com_z() - 6.0;  // nudge the strand down
  HapticDevice haptics(haptic_params);

  ImdSession session(network, sim_host, viz_host, imd, &simulation);
  session.set_visualizer_policy(haptics.as_policy());
  const ImdMetrics metrics = session.run();

  std::printf("\nIMD session over %s:\n", net::lightpath_transatlantic().name.c_str());
  std::printf("  steps            : %zu\n", metrics.steps_completed);
  std::printf("  frames delivered : %llu/%llu\n",
              static_cast<unsigned long long>(metrics.frames_delivered),
              static_cast<unsigned long long>(metrics.frames_sent));
  std::printf("  efficiency       : %.1f%% (stall %.1f%%)\n", 100 * metrics.efficiency(),
              100 * metrics.stall_fraction());
  std::printf("  steering applied : %llu commands\n",
              static_cast<unsigned long long>(metrics.commands_applied));
  std::printf("  head COM z now   : %.2f A (haptics pulled it toward %.2f)\n",
              simulation.steered_com_z(), haptic_params.target_z);
  std::printf("  felt force scale : %.1f kcal/mol/A -> suggested kappa %.0f pN/A\n",
              haptics.force_log().mean(), haptics.suggested_spring_pn());

  // --- checkpoint & clone (V&V without perturbing the original, §III) --------
  simulation.take_checkpoint("exploration-point");
  SteerableSimulation clone = simulation.clone_from("exploration-point", /*seed=*/991);
  clone.deliver(SteeringMessage::apply_force({0, 0, -120.0}));  // aggressive what-if
  clone.run(600);
  simulation.run(600);
  std::printf("\nafter 600 further steps:\n");
  std::printf("  original  head z : %.2f A (unperturbed)\n", simulation.steered_com_z());
  std::printf("  clone     head z : %.2f A (aggressively steered what-if)\n",
              clone.steered_com_z());

  // --- live JE convergence on the steering client ---------------------------
  // The operator's question while replicas pull: "is the free-energy
  // estimate converged enough to stop?". A ConvergenceTracker ingests each
  // replica's endpoint work and its diagnostics are published as monitored
  // parameters, so they arrive over the same telemetry channel as
  // temperature and COM — and gate when to stop spending replicas.
  fe::ConvergenceConfig conv;
  conv.target_error_kcal = 1.0;  // stop once σ_jack ≤ 1 kcal/mol
  conv.min_samples = 3;
  fe::ConvergenceTracker tracker(conv);
  simulation.publish_monitor("je_delta_f_kcal", [&tracker] { return tracker.state().delta_f; });
  simulation.publish_monitor("je_error_kcal",
                             [&tracker] { return tracker.state().jackknife_error; });
  simulation.publish_monitor("je_ess", [&tracker] { return tracker.state().ess; });

  const double pull_distance = 2.0;  // Å — a quick probe pull per replica
  std::printf("\nJE convergence watch (kappa = 100 pN/A, v = 100 A/ns):\n");
  constexpr int kMaxReplicas = 8;
  for (int r = 0; r < kMaxReplicas; ++r) {
    SteerableSimulation replica = simulation.clone_from("exploration-point", 1000 + r);
    smd::SmdParams params;
    params.spring_pn_per_angstrom = 100.0;
    params.velocity_angstrom_per_ns = 100.0;
    params.direction = {0.0, 0.0, -1.0};
    params.smd_atoms = {system.dna_selection.front()};
    auto pull = std::make_shared<smd::ConstantVelocityPull>(params);
    pull->attach(replica.engine());
    replica.engine().add_contribution(pull);
    const smd::PullResult result =
        smd::run_pull(replica.engine(), *pull, pull_distance, 50);
    tracker.add_work(
        fe::endpoint_work(result, pull_distance, fe::WorkSource::Accumulated));

    const auto monitors = simulation.monitored_parameters();
    std::printf("  pull %d: dF = %6.2f +- %5.2f kcal/mol, ESS %.1f/%zu\n", r + 1,
                monitors.at("je_delta_f_kcal"), monitors.at("je_error_kcal"),
                monitors.at("je_ess"), tracker.state().samples);
    if (tracker.state().converged) {
      std::printf("  CONVERGED below %.1f kcal/mol after %zu pulls — stop pulling\n",
                  conv.target_error_kcal, tracker.state().samples);
      break;
    }
  }
  if (!tracker.state().converged) {
    std::printf("  replica budget exhausted before the error-bar target\n");
  }

  std::cout << "\nfinal configuration (original):\n";
  std::cout << viz::render_side_view(system.pore->profile(),
                                     simulation.engine().positions());
  return 0;
}
