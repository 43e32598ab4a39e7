#include "spice/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/recorder.hpp"
#include "grid/federation.hpp"
#include "net/network.hpp"
#include "pore/system.hpp"
#include "steering/haptic.hpp"
#include "steering/registry.hpp"
#include "steering/steerable.hpp"
#include "viz/ascii_render.hpp"

namespace spice::core {

namespace {
/// §III: the interactive simulation ran on "typically ... 256" processors.
constexpr int kInteractiveProcessors = 256;
/// The preprocessing sweep's share of the production sampling effort.
constexpr double kPreprocessingFraction = 0.5;
}  // namespace

StaticAnalysisReport run_static_analysis(const PipelineConfig& config) {
  SPICE_RECORD_SPAN("pipeline.static_analysis");
  SPICE_INFO("phase 1: static visualization / structural analysis");
  StaticAnalysisReport report;
  const spice::pore::RadiusProfile profile = spice::pore::hemolysin_profile();
  const auto constriction = profile.constriction();
  report.constriction_z = constriction.z;
  report.constriction_radius = constriction.radius;
  report.vestibule_radius = profile.radius(30.0);
  report.barrel_radius = profile.radius(-25.0);

  spice::pore::TranslocationConfig system_config = config.sweep.system;
  system_config.md.seed = config.seed;
  system_config.equilibration_steps = 0;
  const auto system = spice::pore::build_translocation_system(system_config);
  report.rendering =
      spice::viz::render_side_view(system.pore->profile(), system.engine.positions());
  return report;
}

InteractiveReport run_interactive_phase(const PipelineConfig& config) {
  SPICE_RECORD_SPAN("pipeline.interactive");
  SPICE_INFO("phase 2: interactive MD with visualization and haptics");
  InteractiveReport report;

  // Co-schedule simulation processors + visualization + lightpath.
  {
    spice::grid::EventQueue events;
    spice::grid::Federation federation(events);
    spice::grid::build_spice_federation(federation);
    spice::grid::CoScheduleRequest request;
    request.requirements.push_back({.site = federation.find("NCSA"),
                                    .processors = kInteractiveProcessors,
                                    .needs_lightpath = true});
    request.requirements.push_back(
        {.site = federation.find("Manchester"), .processors = 16, .needs_lightpath = true});
    request.duration_hours = 4.0;
    const auto outcome = spice::grid::reserve_common_window(request, "spice-interactive");
    report.coschedule_feasible = outcome.feasible;
    report.coschedule_start_hours = outcome.start;
  }

  // Network: simulation at NCSA, visualizer + haptics at UCL.
  spice::net::Network network(config.seed);
  const auto sim_host = network.add_host("NCSA");
  const auto viz_host = network.add_host("UCL");
  const spice::net::QosSpec qos = spice::net::lightpath_transatlantic();
  network.connect_sites("NCSA", "UCL", qos);
  report.network_used = qos.name;

  // The registry round-trip of Fig. 2a: components find each other by name.
  spice::steering::ServiceRegistry registry;
  registry.publish({"namd-sim", spice::steering::ComponentKind::Simulation, sim_host});
  registry.publish({"ucl-viz", spice::steering::ComponentKind::Visualizer, viz_host});

  // Real (coarse-grained) engine behind the steering interface.
  spice::pore::TranslocationConfig system_config = config.sweep.system;
  system_config.md.seed = config.seed ^ 0x696d64ULL /*"imd"*/;
  system_config.equilibration_steps = 500;
  auto system = spice::pore::build_translocation_system(system_config);
  const std::vector<std::uint32_t> steered{system.dna_selection.front()};
  spice::steering::SteerableSimulation simulation(std::move(system.engine), steered);

  spice::steering::ImdConfig imd;
  imd.total_steps = config.imd_steps;
  imd.seconds_per_step = seconds_per_step(config.cost, kInteractiveProcessors);
  imd.frame_bytes = frame_bytes(config.cost);

  spice::steering::HapticDevice haptic({.seed = config.seed});
  spice::steering::ImdSession session(network, sim_host, viz_host, imd, &simulation);
  session.set_visualizer_policy(haptic.as_policy());
  report.imd = session.run();

  report.mean_haptic_force = haptic.force_log().mean();
  const double center = haptic.suggested_spring_pn();
  report.suggested_kappa_lo_pn = center / 10.0;
  report.suggested_kappa_hi_pn = center * 10.0;

  // Scripted force-pulse probes (the rest of the phase-2 methodology):
  // relaxation time ⇒ the fastest defensible pulling velocity.
  report.exploration = run_exploration(simulation);
  return report;
}

PreprocessingReport run_preprocessing_phase(const PipelineConfig& config) {
  SPICE_RECORD_SPAN("pipeline.preprocessing");
  SPICE_INFO("phase 3: preprocessing simulations (coarse sweep)");
  PreprocessingReport report;
  SweepConfig coarse = config.sweep;
  coarse.samples_at_slowest = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::lround(config.sweep.samples_at_slowest * kPreprocessingFraction)));
  coarse.bootstrap_resamples = std::max<std::size_t>(16, config.sweep.bootstrap_resamples / 2);
  coarse.seed = config.seed ^ 0x70726570ULL /*"prep"*/;
  report.sweep = run_parameter_sweep(coarse, /*compute_reference=*/false);

  // Screen: a κ whose dissipated work explodes at every velocity is
  // hopeless; keep κ values whose best cell dissipates less than the
  // sweep-wide median + kT-scale slack. With the paper's three κ values
  // all three typically survive — the screen is the safety net.
  std::vector<double> dissipated;
  for (const auto& combo : report.sweep.combos) dissipated.push_back(combo.mean_dissipated_work);
  std::sort(dissipated.begin(), dissipated.end());
  const double median = dissipated[dissipated.size() / 2];
  for (const double kappa : coarse.kappas_pn) {
    double best_cell = std::numeric_limits<double>::infinity();
    for (const auto& combo : report.sweep.combos) {
      if (combo.kappa_pn == kappa) best_cell = std::min(best_cell, combo.mean_dissipated_work);
    }
    if (best_cell <= median * 4.0 + 5.0) report.retained_kappas_pn.push_back(kappa);
  }
  SPICE_ENSURE(!report.retained_kappas_pn.empty(), "preprocessing rejected every kappa");
  return report;
}

ProductionReport run_production_phase(const PipelineConfig& config,
                                      const PreprocessingReport& preprocessing) {
  SPICE_RECORD_SPAN("pipeline.production");
  SPICE_INFO("phase 4: production sweep on the federated grid");
  ProductionReport report;

  SweepConfig production = config.sweep;
  production.kappas_pn = preprocessing.retained_kappas_pn;
  report.sweep = run_parameter_sweep(production, /*compute_reference=*/true);
  report.optimal = select_optimal_parameters(report.sweep.scores);

  report.plan = plan_production_jobs(production, config.cost, config.paper_replicas_per_cell);
  ExecutionOptions exec = config.execution;
  exec.seed = config.seed;
  report.execution = execute_on_federation(report.plan, exec);

  report.cost = smdje_campaign_cost(config.cost, report.plan.jobs.size(),
                                    report.plan.total_simulated_ns /
                                        static_cast<double>(report.plan.jobs.size()),
                                    /*vanilla_microseconds=*/10.0);
  return report;
}

PipelineReport run_full_pipeline(const PipelineConfig& config) {
  SPICE_RECORD_SPAN("pipeline.full");
  PipelineReport report;
  report.statics = run_static_analysis(config);
  report.interactive = run_interactive_phase(config);
  report.preprocessing = run_preprocessing_phase(config);
  report.production = run_production_phase(config, report.preprocessing);
  return report;
}

}  // namespace spice::core
