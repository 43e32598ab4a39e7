#pragma once
// The end-to-end SPICE pipeline — §III "Simulation Method and Analysis":
//
//   Phase 1  Static visualization: structural features of the pore
//            (constriction, vestibule, barrel) from the lumen profile.
//   Phase 2  Interactive MD: a 256-processor simulation coupled to a
//            remote visualizer + haptic device over a co-scheduled
//            lightpath; brackets the (κ, v) search ranges.
//   Phase 3  Preprocessing simulations: a coarse sweep that narrows the
//            parameter set.
//   Phase 4  Production: the full Fig. 4 sweep — mapped onto the federated
//            grid (72 jobs, ~75k CPU-hours) — followed by the σ_stat/σ_sys
//            analysis and the optimal-parameter selection.
//
// Every phase produces a typed report; run_full_pipeline stitches them
// into a PipelineReport (the programmatic equivalent of the paper's §IV).

#include <cstdint>
#include <string>
#include <vector>

#include "grid/coscheduling.hpp"
#include "spice/campaign.hpp"
#include "spice/cost_model.hpp"
#include "spice/interactive_session.hpp"
#include "spice/optimizer.hpp"
#include "spice/production.hpp"
#include "steering/imd.hpp"

namespace spice::core {

struct PipelineConfig {
  SweepConfig sweep;  ///< production-phase sweep definition
  MdCostModel cost;
  std::uint64_t seed = 2005;

  // Interactive phase:
  std::size_t imd_steps = 1200;

  // Production grid execution:
  std::size_t paper_replicas_per_cell = 6;  ///< 3κ × 4v × 6 = 72 jobs
  ExecutionOptions execution;
};

struct StaticAnalysisReport {
  double constriction_z = 0.0;
  double constriction_radius = 0.0;
  double vestibule_radius = 0.0;
  double barrel_radius = 0.0;
  std::string rendering;  ///< ASCII side view of the initial system
};

struct InteractiveReport {
  bool coschedule_feasible = false;
  double coschedule_start_hours = 0.0;
  spice::steering::ImdMetrics imd;
  double mean_haptic_force = 0.0;      ///< kcal/mol/Å
  double suggested_kappa_lo_pn = 0.0;  ///< bracket for the sweep
  double suggested_kappa_hi_pn = 0.0;
  std::string network_used;
  /// Scripted force-pulse exploration (§III: "an estimate of force values
  /// as well as ... suitable constraints"): relaxation time, mobility and
  /// the defensible velocity range for the sweep.
  ExplorationReport exploration;
};

struct PreprocessingReport {
  SweepResult sweep;  ///< coarse, reference-free
  /// κ values retained for production (dissipated-work screen).
  std::vector<double> retained_kappas_pn;
};

struct ProductionReport {
  SweepResult sweep;            ///< the science result (Fig. 4 data)
  OptimizerReport optimal;      ///< §IV conclusion
  ProductionPlan plan;          ///< the 72-job grid mapping
  ProductionExecution execution;  ///< DES run on the federation
  SmdCampaignCost cost;         ///< vs vanilla MD (§I)
};

struct PipelineReport {
  StaticAnalysisReport statics;
  InteractiveReport interactive;
  PreprocessingReport preprocessing;
  ProductionReport production;
};

[[nodiscard]] StaticAnalysisReport run_static_analysis(const PipelineConfig& config);
[[nodiscard]] InteractiveReport run_interactive_phase(const PipelineConfig& config);
[[nodiscard]] PreprocessingReport run_preprocessing_phase(const PipelineConfig& config);
[[nodiscard]] ProductionReport run_production_phase(const PipelineConfig& config,
                                                    const PreprocessingReport& preprocessing);

/// All four phases in sequence.
[[nodiscard]] PipelineReport run_full_pipeline(const PipelineConfig& config);

}  // namespace spice::core
