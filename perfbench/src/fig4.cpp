// fig4_sweep — the paper's Fig. 4 SMD-JE (κ, v) sweep as bench/fig4_pmf
// configures it, at md.threads = 4: 12 cells of ensemble pulls with a
// Jarzynski PMF and bootstrap σ_stat each, the umbrella + WHAM reference,
// the (σ_stat, σ_sys) scores, the optimizer's choice and the 72-job
// production plan on the paper federation.
//
// Untraced runs call the library's entry point per cell (core::run_combo).
// Traced runs replay run_combo through the public layer calls it is made
// of (EnsembleEngine, run_ensemble_pull, the fe estimators), each wrapped
// in a span, and must reproduce the untraced PMFs and σ_stat bit for bit.

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "fe/convergence.hpp"
#include "fe/error_analysis.hpp"
#include "fe/jarzynski.hpp"
#include "fe/pmf.hpp"
#include "fe/wham.hpp"
#include "md/ensemble_engine.hpp"
#include "md/observables.hpp"
#include "pore/system.hpp"
#include "smd/pulling.hpp"
#include "spice/campaign.hpp"
#include "spice/cost_model.hpp"
#include "spice/optimizer.hpp"
#include "spice/production.hpp"

namespace perfbench {

namespace {

namespace core = spice::core;
namespace fe = spice::fe;
namespace md = spice::md;
namespace smd = spice::smd;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kSetupBuilds = 5;
constexpr std::size_t kCells = 12;
/// Equal-replica production plan: 6 jobs per cell, the paper's 72.
constexpr std::size_t kJobsPerCell = 6;
/// A cell fails when its λ-averaged |Φ − Φ_ref| exceeds this (kcal/mol).
constexpr double kSigmaSysBound = 12.0;

// Mirrors of campaign.cpp's private constants: the pulled bead, the pull
// direction, the ensemble wave cap and the reference-engine seed salt.
constexpr std::uint32_t kHeadBead = 0;
const spice::Vec3 kPullDirection{0.0, 0.0, -1.0};
constexpr std::size_t kMaxWave = 64;
constexpr std::uint64_t kReferenceSalt = 0x7265666eULL;

core::SweepConfig sweep_config(std::uint64_t seed) {
  core::SweepConfig config;
  config.samples_at_slowest = 6;
  config.grid_points = 21;
  config.bootstrap_resamples = 64;
  config.seed = seed;
  config.system.md.threads = kThreads;
  config.system.md.seed = seed;  // as run_parameter_sweep seeds its master
  return config;
}

/// The umbrella ladder core::compute_reference_pmf runs.
fe::UmbrellaConfig reference_umbrella(const core::SweepConfig& config) {
  fe::UmbrellaConfig umbrella;
  umbrella.xi_min = 0.0;
  umbrella.xi_max = config.pull_distance;
  umbrella.windows = std::max<std::size_t>(11, config.grid_points);
  umbrella.kappa = 10.0;
  umbrella.equilibration_steps = 1500;
  umbrella.sampling_steps = 6000;
  return umbrella;
}

template <class F>
auto timed(Spans* spans, const char* name, F&& f) {
  Scope scope(spans, name);
  return f();
}

struct WaveStat {
  std::size_t replicas = 0;
  std::uint64_t replica_steps = 0;
  double pull_s = 0.0;
};

struct SweepOutputs {
  std::vector<core::ComboResult> combos;
  fe::WhamResult reference;
  std::uint64_t umbrella_steps = 0;
  std::vector<fe::ParameterScore> scores;
  core::OptimizerReport selection;
  core::ProductionExecution production;
  std::size_t planned_jobs = 0;
  std::vector<WaveStat> waves;  ///< filled by the traced replay only

  [[nodiscard]] std::uint64_t replica_steps() const {
    std::uint64_t steps = 0;
    for (const auto& c : combos) steps += c.md_steps;
    return steps;
  }
  [[nodiscard]] std::uint64_t md_steps() const { return replica_steps() + umbrella_steps; }
  [[nodiscard]] std::size_t pulls() const {
    std::size_t n = 0;
    for (const auto& c : combos) n += c.samples;
    return n;
  }
};

/// core::run_combo, replayed through its public layer calls.
core::ComboResult replay_combo(const spice::pore::TranslocationSystem& master,
                               const core::SweepConfig& config, double kappa_pn,
                               double velocity_ns, Spans* spans, std::vector<WaveStat>& waves) {
  core::ComboResult result;
  result.kappa_pn = kappa_pn;
  result.velocity_ns = velocity_ns;
  result.samples = config.samples_for(velocity_ns);

  std::uint64_t combo_seed = spice::SplitMix64(config.seed).next();
  combo_seed = spice::SplitMix64(combo_seed ^ std::bit_cast<std::uint64_t>(kappa_pn)).next();
  combo_seed = spice::SplitMix64(combo_seed ^ std::bit_cast<std::uint64_t>(velocity_ns)).next();

  const double temperature = config.system.md.temperature;
  fe::ConvergenceConfig conv_config;
  conv_config.temperature_k = temperature;
  conv_config.target_error_kcal = config.early_stop_error_kcal;
  conv_config.min_samples = std::max<std::size_t>(2, config.early_stop_min_samples);
  fe::ConvergenceTracker tracker(conv_config);

  smd::SmdParams params;
  params.spring_pn_per_angstrom = kappa_pn;
  params.velocity_angstrom_per_ns = velocity_ns;
  params.direction = kPullDirection;
  params.smd_atoms = {kHeadBead};

  std::vector<smd::PullResult> pulls;
  pulls.reserve(result.samples);
  std::vector<std::uint64_t> seeds;
  for (std::size_t base = 0; base < result.samples; base += kMaxWave) {
    const std::size_t count = std::min(kMaxWave, result.samples - base);
    seeds.clear();
    for (std::size_t r = base; r < base + count; ++r) {
      seeds.push_back(spice::SplitMix64(combo_seed ^ static_cast<std::uint64_t>(r)).next());
    }
    md::EnsembleConfig ensemble_config;
    ensemble_config.threads = master.engine.config().threads;
    md::EnsembleEngine ensemble = timed(spans, "md.EnsembleEngine", [&] {
      return md::EnsembleEngine(master.engine, seeds, ensemble_config);
    });

    std::vector<std::shared_ptr<smd::ConstantVelocityPull>> springs;
    {
      Scope scope(spans, "smd.attach");
      for (std::size_t r = 0; r < seeds.size(); ++r) {
        auto pull = std::make_shared<smd::ConstantVelocityPull>(params);
        pull->attach(ensemble.replica(r));
        ensemble.add_contribution(r, pull);
        springs.push_back(std::move(pull));
      }
    }
    WaveStat stat;
    const double t0 = now_s();
    std::vector<smd::PullResult> wave = timed(spans, "smd.run_ensemble_pull", [&] {
      return smd::run_ensemble_pull(ensemble, springs, config.pull_distance, config.sample_every);
    });
    stat.pull_s = now_s() - t0;
    stat.replicas = wave.size();

    const std::vector<double> works = timed(spans, "fe.endpoint_works", [&] {
      return fe::endpoint_works(wave, config.pull_distance, config.work_source);
    });
    Scope scope(spans, "fe.convergence");
    for (std::size_t w = 0; w < wave.size(); ++w) {
      result.md_steps += wave[w].steps;
      stat.replica_steps += wave[w].steps;
      (void)tracker.add_work(works[w]);
      pulls.push_back(std::move(wave[w]));
    }
    waves.push_back(stat);
  }
  result.samples = pulls.size();
  result.convergence = tracker.state();
  const fe::WorkEnsemble ensemble = timed(spans, "fe.grid_work_ensemble", [&] {
    return fe::grid_work_ensemble(pulls, config.pull_distance, config.grid_points,
                                  config.work_source);
  });
  result.pmf = timed(spans, "fe.estimate_pmf", [&] {
    return fe::estimate_pmf(ensemble, temperature, fe::Estimator::Exponential);
  });
  result.sigma_stat = timed(spans, "fe.bootstrap_stat_error", [&] {
    return fe::bootstrap_stat_error(ensemble, temperature, fe::Estimator::Exponential,
                                    config.bootstrap_resamples, config.seed);
  });
  Scope scope(spans, "fe.diagnostics");
  result.mean_sigma_stat = fe::average_error(result.sigma_stat);
  result.mean_dissipated_work = fe::mean_dissipated_work(ensemble, temperature);
  return result;
}

/// One closed batch from the equilibrated master to the selected (κ, v)
/// and the executed production plan. `spans` null = untraced.
SweepOutputs run_batch(const spice::pore::TranslocationSystem& master,
                       const core::SweepConfig& config, Spans* spans) {
  Scope batch_scope(spans, "batch");
  SweepOutputs out;
  for (const double kappa : config.kappas_pn) {
    for (const double velocity : config.velocities_ns) {
      if (spans == nullptr) {
        out.combos.push_back(core::run_combo(master, config, kappa, velocity));
      } else {
        Scope scope(spans, "core.run_combo");
        out.combos.push_back(replay_combo(master, config, kappa, velocity, spans, out.waves));
      }
    }
  }

  {
    Scope scope(spans, "fe.reference");
    md::Engine engine = master.engine.clone(config.seed ^ kReferenceSalt);
    const spice::Vec3 com = md::center_of_mass(engine.positions(), engine.topology(),
                                               std::vector<std::uint32_t>{kHeadBead});
    const std::vector<std::uint32_t> atoms{kHeadBead};
    const std::uint64_t before = engine.step_count();
    out.reference = timed(spans, "fe.run_umbrella_sampling", [&] {
      return fe::run_umbrella_sampling(engine, atoms, kPullDirection, com,
                                       reference_umbrella(config));
    });
    out.umbrella_steps = engine.step_count() - before;
    fe::shift_pmf(out.reference.pmf, 0.0);
  }

  {
    Scope scope(spans, "core.optimizer");
    for (const auto& combo : out.combos) {
      fe::ParameterScore score;
      score.kappa_pn = combo.kappa_pn;
      score.velocity_ns = combo.velocity_ns;
      score.samples = combo.samples;
      score.sigma_stat = combo.mean_sigma_stat;
      score.sigma_sys = fe::systematic_error(combo.pmf, out.reference.pmf);
      out.scores.push_back(score);
    }
    out.selection = core::select_optimal_parameters(out.scores);
  }

  {
    Scope scope(spans, "core.execute_on_federation");
    const core::ProductionPlan plan =
        core::plan_production_jobs(config, core::MdCostModel{}, kJobsPerCell);
    out.planned_jobs = plan.jobs.size();
    core::ExecutionOptions options;
    options.seed = config.seed;
    out.production = core::execute_on_federation(plan, options);
  }
  return out;
}

bool finite(const std::vector<double>& xs) {
  for (const double x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::uint64_t digest(const SweepOutputs& out) {
  Fnv1a fnv;
  for (const auto& c : out.combos) {
    fnv.f64(c.kappa_pn);
    fnv.f64(c.velocity_ns);
    fnv.u64(c.samples);
    fnv.f64s(c.pmf.phi);
    fnv.f64s(c.sigma_stat);
  }
  fnv.f64s(out.reference.pmf.phi);
  fnv.f64(out.selection.best.kappa_pn);
  fnv.f64(out.selection.best.velocity_ns);
  fnv.u64(out.production.campaign.completed);
  fnv.f64(out.production.makespan_hours);
  return fnv.h;
}

/// Check one batch's outputs; returns the number of failed cells.
std::size_t check_outputs(const SweepOutputs& out, Report& report, bool print_cells) {
  std::size_t failed = 0;
  if (print_cells) {
    std::printf("%10s %8s %8s %12s %12s\n", "kappa_pN_A", "v_A_ns", "samples", "sigma_stat",
                "sigma_sys");
  }
  for (std::size_t i = 0; i < out.combos.size(); ++i) {
    const auto& c = out.combos[i];
    const double sigma_sys = out.scores[i].sigma_sys;
    const bool ok = finite(c.pmf.phi) && finite(c.sigma_stat) && std::isfinite(sigma_sys) &&
                    sigma_sys <= kSigmaSysBound;
    if (!ok) ++failed;
    if (print_cells || !ok) {
      std::printf("%10.0f %8.1f %8zu %12.4f %12.4f%s\n", c.kappa_pn, c.velocity_ns, c.samples,
                  c.mean_sigma_stat, sigma_sys, ok ? "" : "  FAILED");
    }
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "all %zu cells have a finite PMF with sigma_sys <= %.1f kcal/mol (%zu failed)",
                kCells, kSigmaSysBound, failed);
  report.check(out.combos.size() == kCells && failed == 0, line);
  report.check(out.reference.converged, "WHAM reference converged in " +
                                            std::to_string(out.reference.iterations) +
                                            " iterations");
  report.check(out.production.campaign.completed == out.planned_jobs,
               "production plan completed " +
                   std::to_string(out.production.campaign.completed) + " of " +
                   std::to_string(out.planned_jobs) + " jobs on the paper federation");
  std::printf("selected: kappa = %.0f pN/A, v = %.1f A/ns (not gated)\n",
              out.selection.best.kappa_pn, out.selection.best.velocity_ns);
  return failed;
}

struct MdProbe {
  double force_eval_us = 0.0;
  double step_us = 0.0;
};

/// Per-call cost of Engine::compute_energies and Engine::step on a clone
/// of the equilibrated master at `threads`: median over blocks.
MdProbe probe_engine(const md::Engine& master, std::size_t threads, std::uint64_t seed) {
  constexpr std::size_t kBlocks = 9;
  constexpr std::size_t kCalls = 1000;
  md::MdConfig config = master.config();
  config.threads = threads;
  config.seed = seed;
  md::Engine engine = master.clone_with(config, nullptr, 0);
  engine.step(200);
  std::vector<double> force_us;
  std::vector<double> step_us;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    double t0 = now_s();
    for (std::size_t i = 0; i < kCalls; ++i) (void)engine.compute_energies();
    force_us.push_back((now_s() - t0) * 1e6 / kCalls);
    t0 = now_s();
    for (std::size_t i = 0; i < kCalls; ++i) engine.step();
    step_us.push_back((now_s() - t0) * 1e6 / kCalls);
  }
  return {median(force_us), median(step_us)};
}

/// Replica-step cost of the waves with `replicas` replicas, seconds.
double replica_step_cost(const std::vector<WaveStat>& waves, std::size_t replicas) {
  double seconds = 0.0;
  std::uint64_t steps = 0;
  for (const auto& w : waves) {
    if (w.replicas != replicas) continue;
    seconds += w.pull_s;
    steps += w.replica_steps;
  }
  return seconds / static_cast<double>(steps);
}

void report_layers(const Spans& spans, const SweepOutputs& traced, Report& report) {
  std::size_t smallest = traced.waves.front().replicas;
  std::size_t largest = smallest;
  for (const auto& w : traced.waves) {
    smallest = std::min(smallest, w.replicas);
    largest = std::max(largest, w.replicas);
  }
  const double pull_s = spans.total("smd.run_ensemble_pull");
  const double builds = static_cast<double>(spans.count("md.EnsembleEngine"));
  report.set("md.ensemble_build_ms", 1e3 * spans.total("md.EnsembleEngine") / builds);
  report.set("md.replica_step_us", 1e6 * pull_s / static_cast<double>(traced.replica_steps()));
  // Replica-step cost in the smallest waves (6 replicas at v = 12.5) over
  // that in the largest (48 at v = 100): idle ensemble workers show here.
  report.set("md.wave_imbalance", replica_step_cost(traced.waves, smallest) /
                                      replica_step_cost(traced.waves, largest));
  report.set("smd.pull_s", pull_s);
  report.set("smd.pulls", static_cast<double>(traced.pulls()));
  report.set("fe.jarzynski_ms", 1e3 * (spans.total("fe.endpoint_works") +
                                       spans.total("fe.grid_work_ensemble") +
                                       spans.total("fe.estimate_pmf")));
  report.set("fe.bootstrap_ms", 1e3 * spans.total("fe.bootstrap_stat_error"));
  report.set("fe.umbrella_s", spans.total("fe.run_umbrella_sampling"));
  report.set("fe.umbrella_steps", static_cast<double>(traced.umbrella_steps));
  report.set("fe.wham_iterations", static_cast<double>(traced.reference.iterations));
  report.set("core.optimizer_ms", 1e3 * spans.total("core.optimizer"));
  report.set("grid.paper_federation_ms", 1e3 * spans.total("core.execute_on_federation"));
}

}  // namespace

void run_fig4_sweep(const Options& options, Report& report) {
  const core::SweepConfig config = sweep_config(options.seed);
  std::printf("fig4_sweep: %zu cells, %zu pulls at the slowest v, %zu-point grid, %zu bootstrap "
              "resamples, md.threads = %zu\n",
              kCells, config.samples_at_slowest, config.grid_points, config.bootstrap_resamples,
              kThreads);

  // Set-up: build and equilibrate the master system (identical each time).
  std::optional<spice::pore::TranslocationSystem> master;
  std::vector<double> setup_times;
  for (std::size_t k = 0; k < kSetupBuilds; ++k) {
    master.reset();
    const double t0 = now_s();
    master.emplace(spice::pore::build_translocation_system(config.system));
    setup_times.push_back(now_s() - t0);
  }
  const double setup_s = median(setup_times);
  std::printf("setup builds:");
  for (const double t : setup_times) std::printf(" %.4f", t);
  std::printf(" s\n");

  if (!options.trace) {
    std::vector<double> batch_times;
    std::uint64_t first_digest = 0;
    bool replay = true;
    std::uint64_t md_steps = 0;
    const double start = now_s();
    while (batch_times.empty() || now_s() - start < options.seconds) {
      const double t0 = now_s();
      const SweepOutputs out = run_batch(*master, config, nullptr);
      batch_times.push_back(now_s() - t0);
      md_steps = out.md_steps();
      const std::uint64_t d = digest(out);
      if (batch_times.size() == 1) {
        first_digest = d;
        report.set("peak_rss_mib", peak_rss_mib());
      }
      replay = replay && d == first_digest;
      std::printf("batch %zu: %.3f s, %llu md steps, digest %016llx\n", batch_times.size(),
                  batch_times.back(), static_cast<unsigned long long>(md_steps),
                  static_cast<unsigned long long>(d));
      report.count_operations(kCells, check_outputs(out, report, batch_times.size() == 1));
    }
    report.check(replay, "same-seed batches replay bit-identically");
    const double time_to_pmf_s = median(batch_times);
    const double md_steps_per_s = static_cast<double>(md_steps) / time_to_pmf_s;
    std::printf("time_to_pmf_s %.6f s\nmd_steps_per_s %.1f 1/s\nsetup_s %.6f s\n", time_to_pmf_s,
                md_steps_per_s, setup_s);
    report.set("setup_s", setup_s);
    report.set("time_to_result_s", time_to_pmf_s);
    report.set("throughput_per_s", md_steps_per_s);
    return;
  }

  // Traced run: an untraced batch as the bit-for-bit oracle, then the
  // replay with every layer call wrapped in a span.
  double t0 = now_s();
  const SweepOutputs plain = run_batch(*master, config, nullptr);
  const double plain_s = now_s() - t0;
  Spans spans;
  t0 = now_s();
  const SweepOutputs traced = run_batch(*master, config, &spans);
  const double traced_s = now_s() - t0;
  report.count_operations(kCells, check_outputs(traced, report, true));

  bool identical = plain.combos.size() == traced.combos.size() &&
                   same_bits(plain.reference.pmf.phi, traced.reference.pmf.phi) &&
                   digest(plain) == digest(traced);
  for (std::size_t i = 0; identical && i < plain.combos.size(); ++i) {
    const auto& a = plain.combos[i];
    const auto& b = traced.combos[i];
    identical = same_bits(a.pmf.lambda, b.pmf.lambda) && same_bits(a.pmf.phi, b.pmf.phi) &&
                same_bits(a.sigma_stat, b.sigma_stat) && a.md_steps == b.md_steps &&
                a.samples == b.samples;
  }
  report.check(identical, "traced replay reproduces the untraced PMFs and sigma_stat bit for bit");
  std::printf("digest %016llx (untraced %016llx), untraced batch %.3f s, traced batch %.3f s\n",
              static_cast<unsigned long long>(digest(traced)),
              static_cast<unsigned long long>(digest(plain)), plain_s, traced_s);
  spans.print_table();

  const std::uint64_t probe_seed = options.seed ^ 0x70726f6265ULL;
  const MdProbe probe = probe_engine(master->engine, kThreads, probe_seed);
  const MdProbe probe1 = probe_engine(master->engine, 1, probe_seed);
  report.set("pore.build_s", setup_s);
  report.set("md.force_eval_us", probe.force_eval_us);
  report.set("md.step_us", probe.step_us);
  report.set("md.force_eval_us_t1", probe1.force_eval_us);
  report.set("md.step_us_t1", probe1.step_us);
  report.set("md.integrate_us", probe.step_us - probe.force_eval_us);
  report_layers(spans, traced, report);
  report_trace_cost(spans, traced_s / plain_s, 1.0, report);
}

}  // namespace perfbench
