// grid_wide / grid_narrow — the bench/grid_scale campaign shape: 100k
// synthetic jobs, seeded lazy site faults, LeastBacklog placement and
// streaming metrics (keep_finished_jobs = false), with no MD at all.
//
// grid_wide spreads the jobs over 1000 sites, where the broker's placement
// scan dominates. grid_narrow runs the same jobs and fault model on 10
// sites, so site queues are deep and queue/backlog updates and the event
// queue dominate while placement is cheap: a placement index that speeds
// queries but slows updates shows there.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "grid/des.hpp"
#include "grid/faults.hpp"
#include "grid/federation.hpp"

namespace perfbench {

namespace {

namespace grid = spice::grid;

constexpr std::size_t kJobs = 100000;
constexpr std::size_t kSetupReps = 16;
/// The platform — site sizes and speeds, and the seeded outage schedule —
/// is fixed (grid_scale's seed); the workload seed draws the job stream
/// and the retry jitter. On 10 sites, where each outage falls would
/// otherwise swing a campaign's cost by ±30 % from seed to seed.
constexpr std::uint64_t kPlatformSeed = 2005;

/// Job i, a pure function of (seed, i) — grid_scale's synthetic job.
grid::Job synthetic_job(std::uint64_t seed, std::size_t i) {
  spice::SplitMix64 mix(seed ^ (0x6a6f62ULL << 32) ^ i);
  static const int kProcs[] = {4, 8, 16, 32};
  grid::Job job;
  job.id = static_cast<grid::JobId>(i);
  job.kind = grid::JobKind::Campaign;
  job.processors = kProcs[mix.next() % 4];
  job.runtime_hours = 1.0 + 4.0 * (static_cast<double>(mix.next() >> 11) * 0x1.0p-53);
  job.checkpoint_interval_hours = 1.0;
  return job;
}

grid::FaultConfig fault_config() {
  grid::FaultConfig faults;
  faults.seed = kPlatformSeed;
  faults.site_mtbf_hours = 300.0;
  faults.mean_outage_hours = 2.0;
  faults.horizon_hours = 200.0;
  faults.lazy_arming = true;
  return faults;
}

struct Batch {
  double setup_s = 0.0;
  double run_s = 0.0;  ///< submit + drain
  std::uint64_t events = 0;
  grid::CampaignResult result;
  std::uint64_t digest = 0;
};

/// As grid_scale's hash_campaign: every streaming result of the campaign.
std::uint64_t hash_campaign(const grid::CampaignResult& r) {
  Fnv1a fnv;
  fnv.u64(r.completed);
  fnv.u64(r.failed);
  fnv.f64(r.makespan_hours);
  fnv.f64(r.total_cpu_hours);
  fnv.f64(r.credited_cpu_hours);
  fnv.f64(r.wasted_cpu_hours);
  fnv.u64(r.held_dispatches);
  fnv.u64(r.checkpoint_restarts);
  fnv.f64(r.wait_stats.mean_hours);
  fnv.f64(r.wait_stats.median_hours);
  fnv.f64(r.wait_stats.p95_hours);
  fnv.f64(r.wait_stats.max_hours);
  for (const auto& share : r.site_shares) {
    fnv.bytes(share.site.data(), share.site.size());
    fnv.u64(share.jobs);
    fnv.f64(share.cpu_hours);
  }
  return fnv.h;
}

/// Mean time to build the federation and arm its faults, over
/// kSetupReps throwaway builds (with their teardown): a 10-site build
/// takes tens of microseconds, too short to time once.
double time_setup(std::size_t sites) {
  const double t0 = now_s();
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    grid::EventQueue events;
    grid::Federation federation(events);
    grid::FaultInjector injector(federation, fault_config());
    grid::build_synthetic_federation(federation, sites, kPlatformSeed);
    injector.arm();
  }
  return (now_s() - t0) / static_cast<double>(kSetupReps);
}

/// One closed campaign: build the federation and arm its faults (set-up),
/// then submit every job and drain the event queue. `spans` null =
/// untraced.
Batch run_batch(std::uint64_t seed, std::size_t sites, Spans* spans) {
  Scope batch_scope(spans, "batch");
  Batch out;
  {
    Scope scope(spans, "grid.setup_probe");
    out.setup_s = time_setup(sites);
  }
  grid::EventQueue events;
  grid::Federation federation(events);
  grid::FaultInjector injector(federation, fault_config());
  {
    Scope scope(spans, "grid.setup");
    grid::build_synthetic_federation(federation, sites, kPlatformSeed);
    injector.arm();
  }

  grid::CampaignConfig config;
  config.job_factory = [seed](std::size_t i) { return synthetic_job(seed, i); };
  config.job_count = kJobs;
  config.policy = grid::BrokerPolicy::LeastBacklog;
  config.keep_finished_jobs = false;
  config.max_requeues = 10;
  config.retry.max_holds = 200;
  config.retry.seed = seed;
  const double t0 = now_s();
  grid::Broker broker(federation, config);
  {
    Scope scope(spans, "grid.submit_all");
    broker.submit_all();
  }
  {
    Scope scope(spans, "grid.drain");
    while (!broker.done() && events.step()) {
    }
  }
  out.run_s = now_s() - t0;
  out.events = events.processed();
  out.result = broker.result();
  out.digest = hash_campaign(out.result);
  return out;
}

/// Check one campaign; returns the jobs that failed or went missing.
std::uint64_t check_batch(const Batch& b, Report& report) {
  const grid::CampaignResult& r = b.result;
  const bool accounted = r.completed + r.failed == kJobs;
  const double consumed = r.cpu.consumed_cpu_hours;
  const bool cpu_balanced =
      std::abs(r.cpu.credited_cpu_hours + r.cpu.wasted_cpu_hours - consumed) <= 1e-9 * consumed;
  report.check(accounted, "completed + failed == submitted (" + std::to_string(r.completed) +
                              " + " + std::to_string(r.failed) + " of " +
                              std::to_string(kJobs) + ")");
  report.check(cpu_balanced, "credited + wasted == consumed CPU-h");
  const std::uint64_t missing = accounted ? 0 : kJobs - std::min(kJobs, r.completed + r.failed);
  return r.failed + missing;
}

}  // namespace

void run_grid(const Options& options, std::size_t sites, Report& report) {
  std::printf("%s: %zu jobs on %zu synthetic sites, lazy faults (MTBF 300 h), LeastBacklog\n",
              options.workload.c_str(), kJobs, sites);
  Spans spans;
  std::vector<Batch> plain;
  std::vector<Batch> traced;
  run_batches(options, spans, plain, traced, [&](Spans* s) {
    Batch b = run_batch(options.seed, sites, s);
    std::printf("batch%s: setup %.4f s, run %.4f s, %llu events, digest %016llx\n",
                s ? " (traced)" : "", b.setup_s, b.run_s,
                static_cast<unsigned long long>(b.events),
                static_cast<unsigned long long>(b.digest));
    report.count_operations(kJobs, check_batch(b, report));
    if (!options.trace && plain.empty()) report.set("peak_rss_mib", peak_rss_mib());
    return b;
  });

  bool replay = true;
  std::vector<double> setup;
  std::vector<double> run;
  for (const auto* batches : {&plain, &traced}) {
    for (const Batch& b : *batches) {
      replay = replay && b.digest == plain.front().digest && b.events == plain.front().events;
      setup.push_back(b.setup_s);
      if (batches == &plain) run.push_back(b.run_s);
    }
  }
  report.check(replay, "same-seed campaigns replay bit-identically");
  const grid::CampaignResult& r = plain.front().result;
  const double events = static_cast<double>(plain.front().events);

  if (!options.trace) {
    const double run_s = median(run);
    std::printf("events_per_s %.1f 1/s\nsetup_s %.6f s\n", events / run_s, median(setup));
    report.set("setup_s", median(setup));
    report.set("time_to_result_s", run_s);
    report.set("throughput_per_s", events / run_s);
    return;
  }

  spans.print_table();
  std::vector<double> traced_run;
  for (const Batch& b : traced) traced_run.push_back(b.run_s);
  const double n = static_cast<double>(traced.size());
  report.set("grid.setup_s", median(setup));
  report.set("grid.submit_s", spans.total("grid.submit_all") / n);
  report.set("grid.drain_s", spans.total("grid.drain") / n);
  report.set("grid.events", events);
  report.set("grid.events_per_job", events / static_cast<double>(kJobs));
  report.set("grid.held_dispatches", static_cast<double>(r.held_dispatches));
  report.set("grid.checkpoint_restarts", static_cast<double>(r.checkpoint_restarts));
  report.set("grid.useful_cpu_ratio",
             r.cpu.credited_cpu_hours / (r.cpu.credited_cpu_hours + r.cpu.wasted_cpu_hours));
  report_trace_cost(spans, median(traced_run) / median(run), n, report);
}

}  // namespace perfbench
