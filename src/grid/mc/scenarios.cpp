#include "grid/mc/scenarios.hpp"

#include <utility>

#include "grid/workload.hpp"

namespace spice::grid::mc {

namespace {

/// Shared tail of every builder: wire the campaign + faults into the
/// world in a fixed order, so the sequence of oracle consultations during
/// construction (fault draws, then the RoundRobin offset) is identical
/// across traces — a precondition for choice-stack replay.
void finish_world(ScenarioWorld& world, CampaignConfig config, FaultConfig faults) {
  world.requested = config.jobs.size();
  if (!faults.scheduled.empty() || faults.site_mtbf_hours > 0.0) {
    world.faults = std::make_unique<FaultInjector>(world.federation, std::move(faults));
    world.faults->arm();
  }
  world.broker = std::make_unique<Broker>(world.federation, std::move(config));
  world.broker->submit_all();
}

Job campaign_job(JobId id, int procs, double runtime_hours) {
  Job job;
  job.id = id;
  job.processors = procs;
  job.runtime_hours = runtime_hours;
  return job;
}

}  // namespace

Scenario recovery_backoff_tie_scenario() {
  Scenario s;
  s.name = "recovery-backoff-tie";
  s.build = [](ChoiceOracle* oracle, std::uint64_t) {
    auto world = std::make_unique<ScenarioWorld>();
    world->federation.add_site({.name = "S", .grid = "TeraGrid", .processors = 128});

    // Kill the 8 h job at t=1 (outage until 4). Redispatch at t=2 finds
    // no alternative site, parks the job Held with a backoff timer of
    // base·factor = 2 h — landing at t=4, exactly the recovery event.
    CampaignConfig config;
    config.jobs = {campaign_job(1, 128, 8.0)};
    config.retry.base_backoff_hours = 1.0;
    config.retry.backoff_factor = 2.0;
    config.retry.jitter_fraction = 0.0;
    config.oracle = oracle;

    FaultConfig faults;
    faults.scheduled = {{.site = "S", .start_hours = 1.0, .duration_hours = 3.0}};

    finish_world(*world, std::move(config), std::move(faults));
    return world;
  };
  return s;
}

Scenario round_robin_outage_scenario(std::size_t n_jobs) {
  Scenario s;
  s.name = "round-robin-outage-" + std::to_string(n_jobs) + "j";
  s.build = [n_jobs](ChoiceOracle* oracle, std::uint64_t seed) {
    auto world = std::make_unique<ScenarioWorld>();
    world->federation.add_site({.name = "A", .grid = "TeraGrid", .processors = 128});
    world->federation.add_site({.name = "B", .grid = "TeraGrid", .processors = 128});

    // RoundRobin with an enumerated start offset; the outage on A kills
    // whatever A holds at t=1. The killed jobs' backoff delays are
    // 2-level enumerable jitter, so equal-level retries tie and permute.
    CampaignConfig config;
    for (std::size_t i = 0; i < n_jobs; ++i) {
      config.jobs.push_back(campaign_job(static_cast<JobId>(i + 1), 128, 4.0));
    }
    config.policy = BrokerPolicy::RoundRobin;
    config.retry.base_backoff_hours = 0.1;
    config.retry.jitter_fraction = 0.25;
    config.retry.oracle_jitter_levels = 2;
    config.retry.seed = seed;
    config.oracle = oracle;

    FaultConfig faults;
    faults.scheduled = {{.site = "A", .start_hours = 1.0, .duration_hours = 3.5}};

    finish_world(*world, std::move(config), std::move(faults));
    return world;
  };
  return s;
}

Scenario overlapping_outage_scenario() {
  Scenario s;
  s.name = "overlapping-outage-held";
  s.build = [](ChoiceOracle* oracle, std::uint64_t) {
    auto world = std::make_unique<ScenarioWorld>();
    world->federation.add_site({.name = "A", .grid = "TeraGrid", .processors = 128});
    world->federation.add_site({.name = "B", .grid = "NGS", .processors = 128});

    // A is down [1,6) and again [3,10) — one merged window, one recovery
    // at 10, the interior recovery at 6 suppressed. B is down [2,8),
    // covering the gap, so every job cycles through the held queue and
    // same-attempt hold timers tie pairwise.
    CampaignConfig config;
    config.jobs = {campaign_job(1, 128, 2.0),
                   campaign_job(2, 128, 2.0),
                   campaign_job(3, 128, 2.0)};
    config.retry.base_backoff_hours = 0.1;
    config.retry.backoff_factor = 2.0;
    config.retry.jitter_fraction = 0.0;
    config.oracle = oracle;

    FaultConfig faults;
    faults.scheduled = {{.site = "A", .start_hours = 1.0, .duration_hours = 5.0},
                       {.site = "A", .start_hours = 3.0, .duration_hours = 7.0},
                       {.site = "B", .start_hours = 2.0, .duration_hours = 6.0}};

    finish_world(*world, std::move(config), std::move(faults));
    return world;
  };
  return s;
}

Scenario fault_draw_scenario() {
  Scenario s;
  s.name = "fault-draw-quantiles";
  s.build = [](ChoiceOracle* oracle, std::uint64_t seed) {
    auto world = std::make_unique<ScenarioWorld>();
    world->federation.add_site({.name = "S", .grid = "TeraGrid", .processors = 128});

    // The random failure process itself is the nondeterminism: every
    // (gap, duration) draw branches over 2 quantiles of its exponential,
    // so sibling traces range from "no outage before the horizon" to
    // "two outages interrupting the checkpointing job".
    CampaignConfig config;
    config.jobs = {campaign_job(1, 128, 12.0)};
    config.checkpoint_interval_hours = 1.0;
    config.retry.base_backoff_hours = 0.1;
    config.retry.jitter_fraction = 0.0;
    config.oracle = oracle;

    FaultConfig faults;
    faults.seed = seed;
    faults.site_mtbf_hours = 30.0;
    faults.mean_outage_hours = 2.0;
    faults.horizon_hours = 20.0;
    faults.oracle = oracle;
    faults.oracle_draw_levels = 2;

    finish_world(*world, std::move(config), std::move(faults));
    return world;
  };
  return s;
}

Scenario outage_severity_scenario(double outage_hours) {
  Scenario s;
  s.name = "outage-severity-" + std::to_string(static_cast<int>(outage_hours)) + "h";
  s.build = [outage_hours](ChoiceOracle* oracle, std::uint64_t) {
    auto world = std::make_unique<ScenarioWorld>();
    world->federation.add_site({.name = "S", .grid = "TeraGrid", .processors = 128});

    CampaignConfig config;
    config.jobs = {campaign_job(1, 128, 6.0),
                   campaign_job(2, 128, 6.0)};
    config.checkpoint_interval_hours = 1.0;
    config.retry.base_backoff_hours = 0.1;
    config.retry.backoff_factor = 2.0;
    config.retry.jitter_fraction = 0.0;
    config.oracle = oracle;

    FaultConfig faults;
    if (outage_hours > 0.0) {
      faults.scheduled = {{.site = "S", .start_hours = 2.0, .duration_hours = outage_hours}};
    }

    finish_world(*world, std::move(config), std::move(faults));
    return world;
  };
  return s;
}

Scenario backfill_outage_tie_scenario() {
  Scenario s;
  s.name = "backfill-outage-tie";
  s.build = [](ChoiceOracle* oracle, std::uint64_t) {
    auto world = std::make_unique<ScenarioWorld>();
    world->federation.add_site({.name = "S", .grid = "TeraGrid", .processors = 128});

    // t=0: job 1 takes 64 processors until 4, which is the shadow time of
    // the 128-processor head (job 2). Jobs 3, 5 and 6 fit the free 64 and
    // end by 4, so they backfill; job 4 would end at 6 and waits. Job 3's
    // finish at t=2 ties with the outage [2, 3): either it completes and
    // frees processors for one more scan (job 4 still waits), or the
    // outage kills it with jobs 1 and 6 and flushes jobs 2 and 4.
    CampaignConfig config;
    config.jobs = {campaign_job(1, 64, 4.0), campaign_job(2, 128, 2.0),
                   campaign_job(3, 32, 2.0), campaign_job(4, 32, 6.0),
                   campaign_job(5, 16, 1.0), campaign_job(6, 16, 3.0)};
    config.checkpoint_interval_hours = 1.0;
    config.retry.base_backoff_hours = 0.5;
    config.retry.backoff_factor = 2.0;
    config.retry.jitter_fraction = 0.0;
    config.oracle = oracle;

    FaultConfig faults;
    faults.scheduled = {{.site = "S", .start_hours = 2.0, .duration_hours = 1.0}};

    finish_world(*world, std::move(config), std::move(faults));
    return world;
  };
  return s;
}

Scenario stale_finish_scenario(bool inject_bug) {
  Scenario s;
  s.name = inject_bug ? "stale-finish-mutated" : "stale-finish-clean";
  s.build = [inject_bug](ChoiceOracle* oracle, std::uint64_t seed) {
    auto world = std::make_unique<ScenarioWorld>();
    Site& main = world->federation.add_site(
        {.name = "S", .grid = "TeraGrid", .processors = 128});
    Site& noise = world->federation.add_site(
        {.name = "Tiny", .grid = "TeraGrid", .processors = 16});
    main.set_inject_stale_finish_bug(inject_bug);

    // Tiny can never run the 128-proc campaign job; its only role is
    // seed-varied background noise, so the 100-seed sweep genuinely
    // varies the event stream — yet never the t=10 tie order, which is
    // seq-determined. Timeline on S: job starts at 0 (finish event at
    // 10), outage [4,5) kills it; backoff redispatch at 4+2=6 finds no
    // usable site (Tiny infeasible) and parks it Held with a 4 h timer —
    // landing at t=10, exactly the killed attempt's finish timestamp.
    // With the bug injected that stale finish is still armed: FIFO fires
    // it first against a Held row (masked by the state guard); the
    // permuted order dispatches first, and the stale event then
    // "completes" the fresh attempt at zero wall-clock.
    WorkloadParams noise_load;
    noise_load.target_utilization = 0.4;
    noise_load.mean_runtime_hours = 2.0;
    noise_load.horizon_hours = 24.0;
    noise_load.seed = seed;
    generate_background_load(noise, world->federation.events(), noise_load);

    CampaignConfig config;
    config.jobs = {campaign_job(1, 128, 10.0)};
    config.retry.base_backoff_hours = 2.0;
    config.retry.backoff_factor = 2.0;
    config.retry.max_backoff_hours = 6.0;
    config.retry.jitter_fraction = 0.0;
    config.oracle = oracle;

    FaultConfig faults;
    faults.scheduled = {{.site = "S", .start_hours = 4.0, .duration_hours = 1.0}};

    finish_world(*world, std::move(config), std::move(faults));
    return world;
  };
  return s;
}

}  // namespace spice::grid::mc
