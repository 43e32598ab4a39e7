// The full SPICE pipeline on the federated US-UK grid — all four phases
// of §III at reduced (fast-demo) settings:
//   1. static structural analysis of the pore,
//   2. interactive MD with haptics over a co-scheduled lightpath,
//   3. preprocessing sweep,
//   4. production sweep mapped onto the TeraGrid + NGS federation.
//
// Demonstrates spice::obs end to end: the process flight recorder holds
// the pipeline phases and MD force evaluations on the wall clock, a
// recorder of its own holds the campaign on the DES virtual timeline (one
// track per site), one writer turns each into a Chrome trace, and the
// metrics registry snapshot prints via the viz table writers. Open
// federated_campaign_trace.json in https://ui.perfetto.dev to see the
// campaign as a Gantt chart of queued/running jobs per site. Both traces
// are parsed back before the run reports TRACE OK.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "common/log.hpp"
#include "obs/obs.hpp"
#include "spice/pipeline.hpp"
#include "testkit/testkit.hpp"
#include "viz/dashboard.hpp"
#include "viz/metrics_table.hpp"

using namespace spice;
using namespace spice::core;

namespace {

/// Extract the integer following `"name":` in a JSONL record (0 if the
/// metric did not change in that record).
long long delta_in_record(const std::string& line, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const auto pos = line.find(key);
  if (pos == std::string::npos) return 0;
  return std::stoll(line.substr(pos + key.size()));
}

// Campaign artifacts (traces, metric exports) land under the build tree —
// examples/CMakeLists.txt injects SPICE_OUTPUT_DIR — so demo runs never
// litter the source checkout.
#ifndef SPICE_OUTPUT_DIR
#define SPICE_OUTPUT_DIR "."
#endif

std::string out_path(const char* name) {
  return std::string(SPICE_OUTPUT_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

viz::DashboardFrame to_frame(const CampaignProgress& progress) {
  viz::DashboardFrame frame;
  frame.sim_hours = progress.sim_hours;
  frame.jobs_requested = progress.requested;
  frame.jobs_completed = progress.completed;
  frame.jobs_failed = progress.failed;
  frame.jobs_held = progress.held;
  for (const auto& site : progress.sites) {
    frame.sites.push_back({site.name, site.queued, site.running, site.free_processors,
                           site.backlog_hours, site.in_outage});
  }
  return frame;
}

}  // namespace

int main() {
  set_log_level(LogLevel::Info);  // narrate the phases

  // Every event this process records hangs off campaign 1 — the causal
  // root the post-mortem tree groups by.
  const obs::ContextScope campaign_scope(obs::TraceContext::campaign(1));

  // Black box first: if this demo wedges (watchdog) or dies on a signal,
  // the flight recorder's last seconds land next to the other artifacts.
  obs::PostMortemConfig post_mortem;
  post_mortem.output_dir = SPICE_OUTPUT_DIR;
  post_mortem.prefix = "federated_campaign_postmortem";
  post_mortem.dump_on_watchdog = true;
  post_mortem.dump_on_signal = true;
  obs::arm_post_mortem(post_mortem);

  // Observability on: metrics for the whole pipeline. The always-on
  // process recorder keeps each thread's newest wall-clock events (the
  // production phase alone runs ~1.5M force evaluations, so its rings
  // wrap); the DES campaign records into a recorder of its own, whose
  // default ring holds all of its few hundred virtual-clock events.
  obs::set_metrics_enabled(true);
  obs::FlightRecorder grid_recorder;

  // Mission control: a snapshot exporter streams the registry to disk at
  // 1 Hz while the pipeline runs, and a watchdog guards the long-running
  // subsystems through the counters they already maintain. The deadline is
  // far beyond any healthy gap, so a clean demo run fires zero alerts.
  obs::ExporterConfig exporter_config;
  exporter_config.prometheus_path = out_path("federated_campaign_metrics.prom");
  exporter_config.jsonl_path = out_path("federated_campaign_metrics.jsonl");
  exporter_config.period_s = 1.0;
  obs::SnapshotExporter exporter(exporter_config);
  exporter.start();

  obs::WatchdogConfig watchdog_config;
  watchdog_config.default_deadline_s = 300.0;
  watchdog_config.period_s = 5.0;
  obs::Watchdog watchdog(watchdog_config);
  watchdog.watch_counter("md-engine", obs::metrics().counter("md.engine.steps"));
  watchdog.watch_counter("thread-pool", obs::metrics().counter("pool.parallel_for.calls"));
  watchdog.watch_counter("campaign-pulls", obs::metrics().counter("campaign.pulls"));
  watchdog.start();

  PipelineConfig config;
  config.sweep.kappas_pn = {10.0, 100.0, 1000.0};
  config.sweep.velocities_ns = {25.0, 100.0};
  config.sweep.samples_at_slowest = 4;
  config.sweep.grid_points = 11;
  config.sweep.bootstrap_resamples = 48;
  // Convergence-gated early stop: a (κ, v) cell stops pulling once its
  // streaming jackknife error bar drops below this (fixed counts remain
  // the ceiling, so the gate only saves compute).
  config.sweep.early_stop_error_kcal = 1.0;
  config.sweep.early_stop_min_samples = 4;
  config.imd_steps = 800;
  config.paper_replicas_per_cell = 6;
  config.execution.recorder = &grid_recorder;

  // Mission-control frames every 6 simulated hours of the DES execution.
  CampaignProgress last_progress;
  config.execution.progress_interval_hours = 6.0;
  config.execution.on_progress = [&last_progress](const CampaignProgress& progress) {
    last_progress = progress;
    if (progress.final_frame) return;  // the annotated final frame prints later
    viz::render_dashboard(std::cout, to_frame(progress));
  };

  const PipelineReport report = run_full_pipeline(config);

  std::printf("\n===== PHASE 1: static visualization =====\n");
  std::printf("constriction: R = %.1f A at z = %.1f A; vestibule R = %.1f A; "
              "barrel R = %.1f A\n",
              report.statics.constriction_radius, report.statics.constriction_z,
              report.statics.vestibule_radius, report.statics.barrel_radius);
  std::cout << report.statics.rendering;

  std::printf("\n===== PHASE 2: interactive MD =====\n");
  std::printf("co-scheduled window: %s (start t+%.1f h)\n",
              report.interactive.coschedule_feasible ? "booked" : "FAILED",
              report.interactive.coschedule_start_hours);
  std::printf("network: %s; efficiency %.1f%%, %llu steering commands applied\n",
              report.interactive.network_used.c_str(),
              100 * report.interactive.imd.efficiency(),
              static_cast<unsigned long long>(report.interactive.imd.commands_applied));
  std::printf("haptic force scale %.1f kcal/mol/A -> kappa bracket [%.0f, %.0f] pN/A\n",
              report.interactive.mean_haptic_force,
              report.interactive.suggested_kappa_lo_pn,
              report.interactive.suggested_kappa_hi_pn);

  std::printf("\n===== PHASE 3: preprocessing =====\n");
  std::printf("coarse sweep of %zu cells; retained kappa values:",
              report.preprocessing.sweep.combos.size());
  for (const double k : report.preprocessing.retained_kappas_pn) std::printf(" %.0f", k);
  std::printf("\n");

  std::printf("\n===== PHASE 4: production =====\n");
  const auto& production = report.production;
  std::printf("grid plan: %zu jobs, %.0f CPU-hours expected\n", production.plan.jobs.size(),
              production.plan.expected_cpu_hours);
  std::printf("execution: %.2f days makespan, %zu completed, %zu requeued\n",
              production.execution.makespan_days, production.execution.campaign.completed,
              production.execution.campaign.cpu.restarted_jobs);
  // Queue-wait tail from the broker's streaming accumulators — available
  // even for campaigns that retain no per-job records.
  const auto& waits = production.execution.campaign.wait_stats;
  std::printf("queue waits: mean %.2f h, median %.2f h, p95 %.2f h, max %.2f h\n",
              waits.mean_hours, waits.median_hours, waits.p95_hours, waits.max_hours);
  std::printf("placement:");
  for (const auto& share : production.execution.campaign.site_shares) {
    std::printf("  %s:%zu", share.site.c_str(), share.jobs);
  }
  std::printf("\ncost: %.0fx cheaper than vanilla 10 us MD\n",
              production.cost.reduction_vs_vanilla);

  std::printf("\nscience result — error decomposition:\n");
  std::printf("  kappa     v    sigma_stat  sigma_sys\n");
  for (const auto& s : production.sweep.scores) {
    std::printf("  %5.0f  %5.1f  %9.3f  %9.3f\n", s.kappa_pn, s.velocity_ns, s.sigma_stat,
                s.sigma_sys);
  }
  std::printf("\nparameter selection:\n");
  for (const auto& line : production.optimal.rationale) std::printf("  %s\n", line.c_str());
  std::printf("OPTIMAL: kappa = %.0f pN/A, v = %.1f A/ns\n",
              production.optimal.best.kappa_pn, production.optimal.best.velocity_ns);

  // ----- mission control: final frame -------------------------------------
  std::printf("\n===== MISSION CONTROL (final frame) =====\n");
  viz::DashboardFrame final_frame = to_frame(last_progress);
  for (const auto& combo : production.sweep.combos) {
    final_frame.cells.push_back({combo.kappa_pn, combo.velocity_ns, combo.samples,
                                 combo.convergence.delta_f, combo.convergence.jackknife_error,
                                 combo.convergence.ess, combo.early_stopped});
  }
  {
    const obs::MetricsSnapshot mid = obs::metrics().snapshot();
    viz::render_dashboard(std::cout, final_frame, &mid);
  }
  std::size_t early_stopped = 0;
  for (const auto& combo : production.sweep.combos) early_stopped += combo.early_stopped;
  std::printf("early stop: %zu/%zu cells converged below their replica budget\n",
              early_stopped, production.sweep.combos.size());

  // ----- validation: testkit physics spot-checks --------------------------
  // A fast slice of the physics-validation suite runs inside the campaign
  // binary so drift surfaces on the SAME telemetry the dashboard and
  // exporter already carry: every testkit comparator feeds the
  // testkit.checks.* / testkit.golden.* counters, which the snapshot
  // exporter streams to the .prom/.jsonl files alongside the campaign
  // metrics.
  std::printf("\n===== VALIDATION (testkit spot-checks) =====\n");
  {
    namespace tk = spice::testkit;

    // Determinism: the 64-bead ionic cluster (two force slices, so 8
    // threads really run the slices in parallel) must be bit-identical
    // across thread counts, observables and checkpoint hash alike.
    const tk::GoldenRecord serial = tk::run_golden("ionic_cluster", {.threads = 1});
    const tk::GoldenRecord parallel = tk::run_golden("ionic_cluster", {.threads = 8});
    const tk::GoldenDrift drift =
        tk::compare_golden(parallel, serial, tk::GoldenLevel::Bitwise);
    std::printf("  golden ionic_cluster, 1 vs 8 threads (bitwise): %s\n",
                drift.ok ? "identical" : "DRIFT");

    // Forces are the energy gradient (the sharpest cheap detector of a
    // force-field regression — a 1%% scaling bug moves this by ~6 orders).
    const double fd = tk::force_energy_fd_error({.seed = 909});
    const tk::CheckResult fd_check =
        tk::check(fd < 2e-5, "force/energy finite-difference consistency");
    std::printf("  force vs -dE/dx finite difference: %.2e %s\n", fd,
                fd_check.passed ? "(consistent)" : "(INCONSISTENT)");

    // Statistical invariants on the analytic harmonic-well array: kinetic
    // temperature and configurational equipartition ⟨kx²⟩/kT = 1.
    const tk::WellArraySpec spec;
    const tk::EquilibriumSamples eq = tk::sample_well_array(
        {.seed = 20260806}, spec, {.equilibration_steps = 600, .snapshots = 60, .stride = 30});
    const tk::CheckResult kinetic =
        tk::z_test_mean(eq.temperatures, spec.temperature);
    const tk::CheckResult configurational =
        tk::z_test_mean(eq.position_energy_ratio, 1.0);
    std::printf("  equipartition (kinetic):         z = %.2f %s\n", kinetic.statistic,
                kinetic.passed ? "(ok)" : "(FAIL)");
    std::printf("  equipartition (configurational): z = %.2f %s\n",
                configurational.statistic, configurational.passed ? "(ok)" : "(FAIL)");

    const auto validation = obs::metrics().snapshot();
    const auto checks_total = validation.counter_value("testkit.checks.total");
    const auto checks_failed = validation.counter_value("testkit.checks.failed");
    const auto golden_compared = validation.counter_value("testkit.golden.compared");
    const auto golden_drifted = validation.counter_value("testkit.golden.drifted");
    std::printf("  counters: testkit.checks %llu/%llu failed, testkit.golden %llu/%llu "
                "drifted — %s\n",
                static_cast<unsigned long long>(checks_failed),
                static_cast<unsigned long long>(checks_total),
                static_cast<unsigned long long>(golden_drifted),
                static_cast<unsigned long long>(golden_compared),
                checks_failed == 0 && golden_drifted == 0 ? "VALIDATION OK"
                                                          : "VALIDATION DRIFT");
  }

  // ----- observability dump -----------------------------------------------
  watchdog.stop();
  std::printf("\nhealth: %llu alerts over the run\n",
              static_cast<unsigned long long>(watchdog.alert_count()));
  for (const auto& status : watchdog.status()) {
    std::printf("  %-16s %s\n", status.name.c_str(), status.stalled ? "STALLED" : "healthy");
  }

  exporter.stop();  // one final self-sample after the writers quiesced: exact deltas
  {
    std::ifstream prom(out_path("federated_campaign_metrics.prom"));
    std::stringstream prom_text;
    prom_text << prom.rdbuf();
    const bool prom_ok = prom_text.str().find("# TYPE campaign_pulls counter") !=
                         std::string::npos;

    std::ifstream jsonl(out_path("federated_campaign_metrics.jsonl"));
    std::string line;
    std::size_t lines = 0;
    std::size_t invalid = 0;
    long long pulls_from_deltas = 0;
    while (std::getline(jsonl, line)) {
      ++lines;
      if (!json_is_valid(line)) ++invalid;
      pulls_from_deltas += delta_in_record(line, "campaign.pulls");
    }
    const auto final_snapshot = obs::metrics().snapshot();
    const long long pulls_total =
        static_cast<long long>(final_snapshot.counter_value("campaign.pulls"));
    std::printf("exporter: prometheus exposition %s; jsonl %zu records, %zu invalid; "
                "campaign.pulls deltas sum to %lld (registry: %lld) — %s\n",
                prom_ok ? "well-formed" : "MISSING METRICS", lines, invalid,
                pulls_from_deltas, pulls_total,
                invalid == 0 && prom_ok && pulls_from_deltas == pulls_total
                    ? "PARSE-BACK OK"
                    : "PARSE-BACK FAILED");
  }

  // ----- traces: one writer, parsed back --------------------------------
  const std::string grid_trace_path = out_path("federated_campaign_trace.json");
  const std::string wall_trace_path = out_path("federated_campaign_wall_trace.json");
  obs::save_chrome_trace(grid_recorder, grid_trace_path, "federated campaign (simulated time)");
  obs::save_chrome_trace(obs::flight_recorder(), wall_trace_path, "spice pipeline (wall clock)");
  std::set<std::uint64_t> production_ids;
  for (const auto& job : production.plan.jobs) production_ids.insert(job.id);
  std::size_t production_runs = 0;
  for (const auto& e : grid_recorder.drain()) {
    production_runs += e.kind == obs::RecordKind::Span && std::string(e.name) == "grid.job.run" &&
                       production_ids.contains(e.ctx.job_id());
  }
  const bool traces_parse =
      json_is_valid(slurp(grid_trace_path)) && json_is_valid(slurp(wall_trace_path));
  const bool trace_ok = traces_parse &&
                        production_runs == production.execution.campaign.completed &&
                        grid_recorder.overwritten_count() == 0;

  const obs::MetricsSnapshot snapshot = obs::metrics().snapshot();
  std::printf("\n===== OBSERVABILITY =====\n");
  std::printf("campaign trace: %s (%llu events, virtual clock — load in ui.perfetto.dev)\n",
              grid_trace_path.c_str(),
              static_cast<unsigned long long>(grid_recorder.recorded_count()));
  std::printf("pipeline trace: %s (wall clock, each thread's newest %zu events)\n",
              wall_trace_path.c_str(), obs::flight_recorder().capacity());
  std::printf("traces %s; %zu grid.job.run spans for %zu completed production jobs; "
              "%llu campaign events overwritten — %s\n",
              traces_parse ? "parse back" : "DO NOT PARSE", production_runs,
              production.execution.campaign.completed,
              static_cast<unsigned long long>(grid_recorder.overwritten_count()),
              trace_ok ? "TRACE OK" : "TRACE FAILED");
  std::printf("flight recorder: %llu events recorded on %zu threads "
              "(%llu overwritten; post-mortem armed: watchdog + signals, %llu dumps)\n",
              static_cast<unsigned long long>(obs::flight_recorder().recorded_count()),
              obs::flight_recorder().active_threads(),
              static_cast<unsigned long long>(obs::flight_recorder().overwritten_count()),
              static_cast<unsigned long long>(obs::post_mortem_dump_count()));
  std::printf("\ncounters and gauges:\n");
  viz::metrics_scalar_table(snapshot).write_pretty(std::cout, 0);
  std::printf("\nhistogram summary (interpolated quantiles):\n");
  viz::histogram_summary_table(snapshot).write_pretty(std::cout, 3);
  for (const auto& histogram : snapshot.histograms) {
    std::printf("\nhistogram %s (count %llu, mean %.4f, p50 %.3f, p95 %.3f, p99 %.3f):\n",
                histogram.name.c_str(), static_cast<unsigned long long>(histogram.count),
                histogram.mean(), histogram.quantile(0.5), histogram.quantile(0.95),
                histogram.quantile(0.99));
    viz::histogram_table(histogram).write_pretty(std::cout, 3);
  }
  obs::disarm_post_mortem();  // clean exit: no dump on the final return
  return 0;
}
