#include "spice/campaign.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/units.hpp"
#include "obs/obs.hpp"
#include "fe/pmf.hpp"
#include "fe/wham.hpp"
#include "md/ensemble_engine.hpp"
#include "md/observables.hpp"
#include "smd/restraint.hpp"

namespace spice::core {

namespace {
/// The strand's head bead: the paper steers the C3' atom of the leading
/// nucleotide; the coarse-grained equivalent is bead 0.
constexpr std::uint32_t kHeadBead = 0;
const Vec3 kPullDirection{0.0, 0.0, -1.0};

/// The (κ, v) spring on the strand's head bead along `direction`.
spice::smd::SmdParams head_spring(double kappa_pn, double velocity_ns, const Vec3& direction) {
  spice::smd::SmdParams params;
  params.spring_pn_per_angstrom = kappa_pn;
  params.velocity_angstrom_per_ns = velocity_ns;
  params.direction = direction;
  params.smd_atoms = {kHeadBead};
  return params;
}

}  // namespace

SweepConfig::SweepConfig() {
  // The sweep equilibrates one master system itself.
  system.equilibration_steps = 3000;
}

void SweepConfig::use_small_system() {
  system.dna.nucleotides = 6;
  system.equilibration_steps = 500;
}

std::size_t SweepConfig::samples_for(double velocity_ns) const {
  SPICE_REQUIRE(!velocities_ns.empty(), "sweep has no velocities");
  const double v_min = *std::min_element(velocities_ns.begin(), velocities_ns.end());
  const double scaled = static_cast<double>(samples_at_slowest) * velocity_ns / v_min;
  return std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(scaled)));
}

std::vector<spice::smd::PullResult> run_forward_pulls(
    const spice::pore::TranslocationSystem& master, const SweepConfig& config,
    double kappa_pn, double velocity_ns, std::span<const std::uint64_t> seeds) {
  spice::md::EnsembleEngine ensemble(master.engine, seeds,
                                     {.threads = master.engine.config().threads});
  static obs::Counter& pulls = obs::metrics().counter("campaign.pulls");
  pulls.add(seeds.size());
  return spice::smd::run_pulls(ensemble, head_spring(kappa_pn, velocity_ns, kPullDirection),
                               config.pull_distance, config.sample_every);
}

std::vector<spice::smd::PullResult> run_reverse_pulls(
    const spice::pore::TranslocationSystem& master, const SweepConfig& config,
    double kappa_pn, double velocity_ns, std::span<const std::uint64_t> seeds) {
  spice::md::EnsembleEngine ensemble(master.engine, seeds,
                                     {.threads = master.engine.config().threads});

  // Drag-and-equilibrate every replica to the forward end point with a
  // stiff restraint along the same coordinate, measured from the master's
  // COM (each replica starts from the master's state).
  const Vec3 com0 = spice::md::center_of_mass(master.engine.positions(),
                                              master.engine.topology(),
                                              std::vector<std::uint32_t>{kHeadBead});
  std::vector<std::shared_ptr<spice::smd::StaticRestraint>> holds;
  for (std::size_t r = 0; r < ensemble.size(); ++r) {
    auto hold = std::make_shared<spice::smd::StaticRestraint>(
        std::vector<std::uint32_t>{kHeadBead}, kPullDirection,
        spice::units::spring_pn_per_angstrom(kappa_pn), config.pull_distance);
    hold->attach_reference(com0);
    ensemble.add_contribution(r, hold);
    holds.push_back(std::move(hold));
  }
  ensemble.step_all(4000);
  for (std::size_t r = 0; r < ensemble.size(); ++r) {
    ensemble.remove_contribution(r, holds[r].get());
  }

  // Reverse protocol: pull back along −direction for the same distance,
  // settling with the moving spring attached first.
  spice::smd::SmdParams params = head_spring(kappa_pn, velocity_ns, -kPullDirection);
  params.hold_ps = 2.0;
  return spice::smd::run_pulls(ensemble, params, config.pull_distance, config.sample_every);
}

ComboResult run_combo(const spice::pore::TranslocationSystem& master, const SweepConfig& config,
                      double kappa_pn, double velocity_ns) {
  SPICE_RECORD_SPAN("campaign.combo");
  {
    static obs::Counter& combos = obs::metrics().counter("campaign.combos");
    combos.add(1);
  }
  ComboResult result;
  result.kappa_pn = kappa_pn;
  result.velocity_ns = velocity_ns;
  const std::size_t budget = config.samples_for(velocity_ns);

  std::vector<spice::smd::PullResult> pulls;
  pulls.reserve(budget);
  // Mix every seed component through SplitMix64 before combining. XOR of
  // truncated casts is NOT injective: κ values closer than the cast
  // granularity (0.125 pN/Å) mapped to the same shifted integer and gave
  // replicas of distinct combos identical trajectories. Hashing the raw
  // bit patterns keeps any κ/v distinction, however small.
  std::uint64_t combo_seed = spice::SplitMix64(config.seed).next();
  combo_seed = spice::SplitMix64(combo_seed ^ std::bit_cast<std::uint64_t>(kappa_pn)).next();
  combo_seed = spice::SplitMix64(combo_seed ^ std::bit_cast<std::uint64_t>(velocity_ns)).next();

  const double temperature = config.system.md.temperature;
  // Streaming JE diagnostics over the endpoint works; with the early-stop
  // gate armed, the fixed equal-compute count becomes a ceiling instead of
  // a quota. Pull works are deterministic given the seeds, so the stop
  // decision is identical at any thread count.
  spice::fe::ConvergenceConfig conv_config;
  conv_config.temperature_k = temperature;
  conv_config.target_error_kcal = config.early_stop_error_kcal;
  conv_config.min_samples = std::max<std::size_t>(2, config.early_stop_min_samples);
  spice::fe::ConvergenceTracker tracker(conv_config);
  static obs::Gauge& error_gauge = obs::metrics().gauge("campaign.convergence.jackknife_error");
  static obs::Gauge& ess_gauge = obs::metrics().gauge("campaign.convergence.ess");
  static obs::Counter& early_stops = obs::metrics().counter("campaign.early_stops");

  auto replica_seed_for = [combo_seed](std::size_t r) {
    return spice::SplitMix64(combo_seed ^ static_cast<std::uint64_t>(r)).next();
  };

  // One wave loop for both gate states; the gate is checked per pull, in
  // seed order. Disarmed, waves hold up to kMaxWave replicas (the cap
  // bounds the arena slab and per-replica engine memory). Armed, the first
  // wave fills up to the gate's floor, below which it cannot fire, and
  // every later wave holds one replica, so no pull runs past the stop
  // point. Ensemble replicas are bit-identical to standalone clones, so
  // the partition changes the execution schedule, never the numbers.
  constexpr std::size_t kMaxWave = 64;
  const bool armed = conv_config.target_error_kcal > 0.0;
  std::vector<std::uint64_t> seeds;
  while (pulls.size() < budget && !result.early_stopped) {
    const std::size_t base = pulls.size();
    std::size_t count = kMaxWave;
    if (armed) count = base < conv_config.min_samples ? conv_config.min_samples - base : 1;
    count = std::min({count, kMaxWave, budget - base});
    seeds.clear();
    for (std::size_t r = base; r < base + count; ++r) seeds.push_back(replica_seed_for(r));
    std::vector<spice::smd::PullResult> wave =
        run_forward_pulls(master, config, kappa_pn, velocity_ns, seeds);
    const std::vector<double> works =
        spice::fe::endpoint_works(wave, config.pull_distance, config.work_source);
    for (std::size_t w = 0; w < wave.size(); ++w) {
      result.md_steps += wave[w].steps;
      const spice::fe::ConvergenceState& state = tracker.add_work(works[w]);
      error_gauge.set(state.jackknife_error);
      ess_gauge.set(state.ess);
      pulls.push_back(std::move(wave[w]));
      if (state.converged && pulls.size() < budget) {
        result.early_stopped = true;
        early_stops.add(1);
        break;
      }
    }
  }
  result.samples = pulls.size();
  result.convergence = tracker.state();
  const spice::fe::WorkEnsemble ensemble = spice::fe::grid_work_ensemble(
      pulls, config.pull_distance, config.grid_points, config.work_source);
  result.pmf =
      spice::fe::estimate_pmf(ensemble, temperature, spice::fe::Estimator::Exponential);
  result.sigma_stat = spice::fe::bootstrap_stat_error(
      ensemble, temperature, spice::fe::Estimator::Exponential, config.bootstrap_resamples,
      config.seed);
  result.mean_sigma_stat = spice::fe::average_error(result.sigma_stat);
  result.mean_dissipated_work = spice::fe::mean_dissipated_work(ensemble, temperature);
  return result;
}

spice::fe::PmfEstimate compute_reference_pmf(const spice::pore::TranslocationSystem& master,
                                             const SweepConfig& config) {
  spice::md::Engine engine = master.engine.clone(config.seed ^ 0x7265666eULL /*"refn"*/);
  const Vec3 com_reference = spice::md::center_of_mass(
      engine.positions(), engine.topology(), std::vector<std::uint32_t>{kHeadBead});

  spice::fe::UmbrellaConfig umbrella;
  umbrella.xi_min = 0.0;
  umbrella.xi_max = config.pull_distance;
  umbrella.windows = std::max<std::size_t>(11, config.grid_points);
  umbrella.kappa = 10.0;  // internal units; stiff enough for narrow windows
  umbrella.equilibration_steps = 1500;
  umbrella.sampling_steps = 6000;

  std::vector<std::uint32_t> atoms{kHeadBead};
  spice::fe::WhamResult wham_result =
      spice::fe::run_umbrella_sampling(engine, atoms, kPullDirection, com_reference, umbrella);
  // Anchor the reference at ξ = 0 like the JE estimates.
  spice::fe::shift_pmf(wham_result.pmf, 0.0);
  return wham_result.pmf;
}

SweepResult run_parameter_sweep(const SweepConfig& config, bool compute_reference) {
  SPICE_RECORD_SPAN("campaign.parameter_sweep");
  SPICE_REQUIRE(!config.kappas_pn.empty() && !config.velocities_ns.empty(),
                "sweep needs κ and v values");
  SweepResult result;
  result.temperature_k = config.system.md.temperature;

  // One equilibrated master configuration shared by every replica.
  spice::pore::TranslocationConfig system_config = config.system;
  system_config.md.seed = config.seed;
  const spice::pore::TranslocationSystem master =
      spice::pore::build_translocation_system(system_config);

  for (const double kappa : config.kappas_pn) {
    for (const double velocity : config.velocities_ns) {
      result.combos.push_back(run_combo(master, config, kappa, velocity));
    }
  }

  if (compute_reference) {
    result.reference = compute_reference_pmf(master, config);
    result.has_reference = true;
    for (const auto& combo : result.combos) {
      spice::fe::ParameterScore score;
      score.kappa_pn = combo.kappa_pn;
      score.velocity_ns = combo.velocity_ns;
      score.samples = combo.samples;
      score.sigma_stat = combo.mean_sigma_stat;
      score.sigma_sys = spice::fe::systematic_error(combo.pmf, result.reference);
      result.scores.push_back(score);
    }
  }
  return result;
}

}  // namespace spice::core
