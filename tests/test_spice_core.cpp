// SPICE core: the §I cost model's quantitative claims, sweep mechanics,
// the §IV parameter-selection rule, the §III production plan and its
// execution on the federated grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "grid/faults.hpp"
#include "grid/federation.hpp"
#include "spice/campaign.hpp"
#include "spice/cost_model.hpp"
#include "spice/optimizer.hpp"
#include "spice/interactive_session.hpp"
#include "spice/production.hpp"

#include "pore/system.hpp"

namespace {

using namespace spice;
using namespace spice::core;

// --- cost model (E5: the paper's back-of-the-envelope) -----------------------------

TEST(CostModel, CpuHoursPerNanosecondIsAbout3000) {
  // "approximately 24 hours on 128 processors ... about 3000 CPU-hours".
  const MdCostModel model;
  EXPECT_NEAR(cpu_hours_per_ns(model), 3072.0, 1.0);
}

TEST(CostModel, VanillaTranslocationIsAbout3e7CpuHours) {
  // "a straightforward vanilla MD simulation will take 3×10⁷ CPU-hours to
  // simulate 10 microseconds".
  const MdCostModel model;
  const double hours = vanilla_cpu_hours(model, 10.0);
  EXPECT_GT(hours, 2.5e7);
  EXPECT_LT(hours, 3.5e7);
}

TEST(CostModel, SmdJeReductionIsFiftyToHundredFold) {
  // "the net computational requirement ... can be reduced by a factor of
  // 50-100". 72 sims × ~4 ns each ≈ 75k CPU-h vs 3×10⁷ vanilla is well
  // inside; check the paper's own numbers land in band.
  const MdCostModel model;
  const SmdCampaignCost cost = smdje_campaign_cost(model, 120, 3.0, 10.0);
  EXPECT_GT(cost.reduction_vs_vanilla, 20.0);
  EXPECT_LT(cost.reduction_vs_vanilla, 150.0);
}

TEST(CostModel, PaperCampaignCostsAbout75kCpuHours) {
  // §III: 72 simulations, ~75,000 CPU-hours → ~1000 CPU-h each, i.e. about
  // a third of a nanosecond per pull at 3000 CPU-h/ns.
  const MdCostModel model;
  const SmdCampaignCost cost = smdje_campaign_cost(model, 72, 0.34, 10.0);
  EXPECT_NEAR(cost.cpu_hours_total, 75000.0, 10000.0);
}

TEST(CostModel, WallClockScalesSublinearly) {
  const MdCostModel model;
  const double at128 = wall_hours(model, 1.0, 128);
  const double at256 = wall_hours(model, 1.0, 256);
  EXPECT_DOUBLE_EQ(at128, 24.0);
  EXPECT_LT(at256, at128);           // more processors help…
  EXPECT_GT(at256, at128 / 2.0);     // …but not perfectly (efficiency < 1)
}

TEST(CostModel, SecondsPerStepMatchesWallClock) {
  const MdCostModel model;  // 1 fs steps → 10⁶ steps/ns
  EXPECT_NEAR(seconds_per_step(model, 128), 24.0 * 3600.0 / 1e6, 1e-9);
}

TEST(CostModel, MooresLawIsACoupleOfDecades) {
  // "Relying only on Moore's law ... a couple of decades away".
  const MdCostModel model;
  const double years = moore_years_until_routine(model, 10.0);
  EXPECT_GT(years, 10.0);
  EXPECT_LT(years, 30.0);
}

TEST(CostModel, FrameBytesFor300kAtoms) {
  const MdCostModel model;
  EXPECT_NEAR(frame_bytes(model), 3.6e6, 1.0);
}

// --- sweep mechanics ------------------------------------------------------------------

TEST(Sweep, SampleCountsScaleWithVelocity) {
  // The paper's equal-compute rule: "the statistical error of a set of
  // samples of the former should be set to be √8 of the latter".
  SweepConfig config;
  config.samples_at_slowest = 3;
  EXPECT_EQ(config.samples_for(12.5), 3u);
  EXPECT_EQ(config.samples_for(25.0), 6u);
  EXPECT_EQ(config.samples_for(50.0), 12u);
  EXPECT_EQ(config.samples_for(100.0), 24u);
}

TEST(Sweep, EqualComputePerCell) {
  // samples ∝ v ⇒ samples × steps-per-pull is constant across velocities.
  SweepConfig config = {};
  config.kappas_pn = {100.0};
  config.velocities_ns = {50.0, 200.0};
  config.samples_at_slowest = 2;
  config.pull_distance = 2.0;
  config.grid_points = 5;
  config.bootstrap_resamples = 16;
  config.use_small_system();
  const SweepResult result = run_parameter_sweep(config, /*compute_reference=*/false);
  ASSERT_EQ(result.combos.size(), 2u);
  EXPECT_NEAR(static_cast<double>(result.combos[0].md_steps),
              static_cast<double>(result.combos[1].md_steps),
              0.05 * static_cast<double>(result.combos[0].md_steps));
}

TEST(Sweep, PmfAnchoredAtZero) {
  SweepConfig config;
  config.kappas_pn = {100.0};
  config.velocities_ns = {200.0};
  config.samples_at_slowest = 2;
  config.pull_distance = 2.0;
  config.grid_points = 5;
  config.bootstrap_resamples = 16;
  config.use_small_system();
  const SweepResult result = run_parameter_sweep(config, false);
  EXPECT_DOUBLE_EQ(result.combos[0].pmf.phi.front(), 0.0);
  EXPECT_EQ(result.combos[0].pmf.lambda.size(), 5u);
  EXPECT_DOUBLE_EQ(result.combos[0].pmf.lambda.back(), 2.0);
}

TEST(Sweep, DeterministicForFixedSeed) {
  SweepConfig config;
  config.kappas_pn = {100.0};
  config.velocities_ns = {200.0};
  config.samples_at_slowest = 2;
  config.pull_distance = 1.5;
  config.grid_points = 4;
  config.bootstrap_resamples = 8;
  config.use_small_system();
  const SweepResult a = run_parameter_sweep(config, false);
  const SweepResult b = run_parameter_sweep(config, false);
  EXPECT_EQ(a.combos[0].pmf.phi, b.combos[0].pmf.phi);
}

/// Bit patterns of a series, so equality means bitwise equality.
std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

TEST(Sweep, EarlyStoppedCellEqualsFixedCellOfItsSize) {
  // Replica seeds depend only on (seed, κ, v, r), so where the armed gate
  // stops decides how many pulls run, never what any of them yields: a
  // cell stopped at n pulls carries the numbers of a disarmed cell whose
  // budget is n.
  SweepConfig armed;
  armed.kappas_pn = {10.0};
  armed.velocities_ns = {200.0};
  armed.samples_at_slowest = 12;
  armed.pull_distance = 1.5;
  armed.grid_points = 4;
  armed.bootstrap_resamples = 8;
  armed.early_stop_error_kcal = 0.025;
  armed.early_stop_min_samples = 3;
  armed.use_small_system();
  pore::TranslocationConfig system_config = armed.system;
  system_config.md.seed = armed.seed;
  const pore::TranslocationSystem master = pore::build_translocation_system(system_config);

  const ComboResult stopped = run_combo(master, armed, 10.0, 200.0);
  ASSERT_TRUE(stopped.early_stopped);
  ASSERT_LT(stopped.samples, armed.samples_for(200.0));
  // Past the gate's floor, so the armed one-replica waves ran too.
  EXPECT_GT(stopped.samples, armed.early_stop_min_samples);

  SweepConfig fixed = armed;
  fixed.early_stop_error_kcal = 0.0;
  fixed.samples_at_slowest = stopped.samples;
  const ComboResult full = run_combo(master, fixed, 10.0, 200.0);
  EXPECT_FALSE(full.early_stopped);
  EXPECT_EQ(full.samples, stopped.samples);
  EXPECT_EQ(full.md_steps, stopped.md_steps);
  EXPECT_EQ(bits(full.pmf.lambda), bits(stopped.pmf.lambda));
  EXPECT_EQ(bits(full.pmf.phi), bits(stopped.pmf.phi));
  EXPECT_EQ(bits(full.sigma_stat), bits(stopped.sigma_stat));

  // Every streaming diagnostic matches; only the verdict differs, since a
  // disarmed tracker never declares convergence.
  const fe::ConvergenceState& a = stopped.convergence;
  const fe::ConvergenceState& b = full.convergence;
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(bits({a.delta_f, a.delta_f_ewma, a.jackknife_error, a.ess, a.mean_work,
                  a.dissipated_work}),
            bits({b.delta_f, b.delta_f_ewma, b.jackknife_error, b.ess, b.mean_work,
                  b.dissipated_work}));
  EXPECT_TRUE(a.converged);
  EXPECT_FALSE(b.converged);
}

// --- optimizer (E3) --------------------------------------------------------------------

std::vector<fe::ParameterScore> paper_like_scores() {
  // Shaped like our measured sweep (and the paper's qualitative Fig. 4):
  // κ=10 tiny σ_stat / huge σ_sys; κ=1000 noisiest; κ=100 the trade-off;
  // at κ=100, v=12.5 and 25 tie on σ_sys.
  return {
      {10.0, 12.5, 2, 0.10, 1.20},   {10.0, 25.0, 4, 0.09, 1.22},
      {10.0, 50.0, 8, 0.07, 1.25},   {10.0, 100.0, 16, 0.06, 1.30},
      {100.0, 12.5, 2, 0.35, 0.52},  {100.0, 25.0, 4, 0.30, 0.55},
      {100.0, 50.0, 8, 0.25, 0.90},  {100.0, 100.0, 16, 0.20, 1.10},
      {1000.0, 12.5, 2, 0.55, 0.60}, {1000.0, 25.0, 4, 0.52, 0.80},
      {1000.0, 50.0, 8, 0.50, 1.20}, {1000.0, 100.0, 16, 0.49, 1.50},
  };
}

TEST(Optimizer, ReproducesThePapersChoice) {
  const OptimizerReport report = select_optimal_parameters(paper_like_scores());
  EXPECT_DOUBLE_EQ(report.best.kappa_pn, 100.0);
  EXPECT_DOUBLE_EQ(report.best.velocity_ns, 12.5);
  EXPECT_FALSE(report.rationale.empty());
}

TEST(Optimizer, RationaleMentionsTradeoffKappa) {
  const OptimizerReport report = select_optimal_parameters(paper_like_scores());
  bool mentions = false;
  for (const auto& line : report.rationale) {
    if (line.find("trade-off") != std::string::npos && line.find("100") != std::string::npos) {
      mentions = true;
    }
  }
  EXPECT_TRUE(mentions);
}

TEST(Optimizer, PrefersSlowestVelocityAmongTies) {
  std::vector<fe::ParameterScore> scores = {
      {100.0, 12.5, 2, 0.30, 0.50},
      {100.0, 25.0, 4, 0.20, 0.52},  // better combined, tied σ_sys
  };
  const OptimizerReport report = select_optimal_parameters(scores);
  EXPECT_DOUBLE_EQ(report.best.velocity_ns, 12.5);
}

TEST(Optimizer, RejectsEmptyInput) {
  EXPECT_THROW(select_optimal_parameters({}), PreconditionError);
}

// --- production plan & execution (E6) ---------------------------------------------------

TEST(ProductionPlan, PaperShapeIs72JobsAt75kCpuHours) {
  SweepConfig sweep;  // 3 κ × 4 v
  const MdCostModel cost;
  const ProductionPlan plan = plan_production_jobs(sweep, cost, /*equal_replicas=*/6);
  EXPECT_EQ(plan.jobs.size(), 72u);
  // Pulls of 10 Å at v ∈ {12.5…100} Å/ns are 0.1–0.8 ns each; the total
  // CPU-hours land in the paper's ~75k band (±40%).
  EXPECT_GT(plan.expected_cpu_hours, 40000.0);
  EXPECT_LT(plan.expected_cpu_hours, 120000.0);
  // 128/256-processor mix.
  bool saw128 = false;
  bool saw256 = false;
  for (const auto& j : plan.jobs) {
    saw128 |= j.processors == 128;
    saw256 |= j.processors == 256;
  }
  EXPECT_TRUE(saw128);
  EXPECT_TRUE(saw256);
}

TEST(ProductionPlan, EqualComputeModeFollowsSampleRule) {
  SweepConfig sweep;
  sweep.samples_at_slowest = 2;
  const ProductionPlan plan = plan_production_jobs(sweep, MdCostModel{}, 0);
  // 3 κ × (2+4+8+16) = 90 jobs.
  EXPECT_EQ(plan.jobs.size(), 90u);
}

TEST(ProductionExecution, FederatedCampaignFinishesUnderAWeek) {
  // §III: "72 parallel MD simulations in under a week".
  const ProductionPlan plan = plan_production_jobs(SweepConfig{}, MdCostModel{}, 6);
  ExecutionOptions options;
  options.background_utilization = 0.7;
  const ProductionExecution exec = execute_on_federation(plan, options);
  EXPECT_EQ(exec.campaign.completed, 72u);
  EXPECT_LT(exec.makespan_days, 7.0);
}

TEST(ProductionExecution, SingleSiteIsMuchSlower) {
  const ProductionPlan plan = plan_production_jobs(SweepConfig{}, MdCostModel{}, 6);
  ExecutionOptions fed;
  ExecutionOptions single;
  single.policy = grid::BrokerPolicy::SingleSite;
  single.single_site = "Manchester";  // a single NGS node
  const auto fed_exec = execute_on_federation(plan, fed);
  const auto single_exec = execute_on_federation(plan, single);
  EXPECT_GT(single_exec.makespan_hours, 2.0 * fed_exec.makespan_hours);
}

// --- scripted interactive exploration (phase-2 methodology) ------------------------------

spice::steering::SteerableSimulation exploration_sim(std::uint64_t seed) {
  pore::TranslocationConfig config;
  config.dna.nucleotides = 8;
  config.equilibration_steps = 800;
  config.md.seed = seed;
  auto system = pore::build_translocation_system(config);
  return spice::steering::SteerableSimulation(std::move(system.engine),
                                              {system.dna_selection.front()});
}

TEST(Exploration, ProducesPhysicalBrackets) {
  auto sim = exploration_sim(91);
  const ExplorationReport report = run_exploration(sim);
  EXPECT_EQ(report.probes_run, 3u);
  EXPECT_GT(report.com_relaxation_ps, 0.0);
  EXPECT_GT(report.mean_response_a, 0.0);       // the probes actually moved the strand
  EXPECT_GT(report.suggested_v_max_ns, 0.0);
  EXPECT_GT(report.suggested_kappa_hi_pn, report.suggested_kappa_lo_pn);
  // The paper's production range (12.5–100 Å/ns) must be defensible for
  // this system: v_max should not fall below the slowest paper velocity.
  EXPECT_GT(report.suggested_v_max_ns, 12.5);
}

TEST(Exploration, StrongerForcesMoveTheStrandFurther) {
  auto sim_soft = exploration_sim(93);
  ExplorationConfig soft;
  soft.probe_forces = {5.0};
  const ExplorationReport weak = run_exploration(sim_soft, soft);

  auto sim_hard = exploration_sim(93);
  ExplorationConfig hard;
  hard.probe_forces = {40.0};
  const ExplorationReport strong = run_exploration(sim_hard, hard);
  EXPECT_GT(strong.mean_response_a, weak.mean_response_a);
}

TEST(Exploration, DeterministicForFixedSeed) {
  auto a = exploration_sim(95);
  auto b = exploration_sim(95);
  const ExplorationReport ra = run_exploration(a);
  const ExplorationReport rb = run_exploration(b);
  EXPECT_DOUBLE_EQ(ra.com_relaxation_ps, rb.com_relaxation_ps);
  EXPECT_DOUBLE_EQ(ra.mean_response_a, rb.mean_response_a);
}

TEST(ProductionExecution, SurvivesSecurityBreachOutage) {
  // §V-C.4: the security breach took out the UK node; redundancy in the
  // federation must absorb it (jobs requeued, campaign still completes).
  const ProductionPlan plan = plan_production_jobs(SweepConfig{}, MdCostModel{}, 6);
  ExecutionOptions options;
  options.faults.scheduled = {
      {.site = "Manchester", .start_hours = 30.0, .duration_hours = 24.0 * 21.0}};  // weeks
  const ProductionExecution exec = execute_on_federation(plan, options);
  EXPECT_EQ(exec.campaign.completed, 72u);
}

TEST(ProductionExecution, BreachRequeueCountComesFromStreamingMetrics) {
  // E6 scenario 6: Manchester down for three weeks from hour 30. The jobs
  // it kills complete elsewhere; the broker's streaming CPU accounting
  // counts them with no per-job records kept.
  const ProductionPlan plan = plan_production_jobs(SweepConfig{}, MdCostModel{}, 6);
  ExecutionOptions options;
  options.faults.scheduled = {
      {.site = "Manchester", .start_hours = 30.0, .duration_hours = 21.0 * 24.0}};
  const ProductionExecution exec = execute_on_federation(plan, options);
  EXPECT_EQ(exec.campaign.completed, 72u);
  EXPECT_TRUE(exec.campaign.finished_jobs.empty());
  EXPECT_EQ(exec.campaign.cpu.restarted_jobs, 3u);
}

}  // namespace
