// Million-job grid DES scaling study on the O(active) substrate.
//
// Arms:
//   new_100k   — 100k jobs / 1000 sites on the event queue + flyweight
//                JobTable + streaming metrics (two same-seed runs → replay
//                digest equality);
//   new_1M     — 1M jobs as 20 sequential 50k-job waves (one Broker per
//                wave, rows recycled between waves) with lazy fault
//                arming; two same-seed runs → replay digest equality.
//
// Reports broker events/sec, peak RSS (VmHWM), JobTable peak_rows /
// bytes_per_row, and the FNV-1a replay digests. `--smoke` runs the
// 100k-job determinism check only (the CI gate).

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <sys/resource.h>

#include "claims.hpp"
#include "common/rng.hpp"
#include "grid/faults.hpp"
#include "grid/federation.hpp"
#include "grid/metrics.hpp"
#include "obs/metrics.hpp"

using namespace spice;
using namespace spice::claims;
using namespace spice::grid;

namespace {

// --- shared workload ---------------------------------------------------------

constexpr std::uint64_t kSeed = 2005;
constexpr std::size_t kSites = 1000;
constexpr std::size_t kGateJobs = 100000;   // replay-gate arm size
constexpr std::size_t kWaveJobs = 50000;    // 1M arm = 20 waves of these
constexpr std::size_t kWaves = 20;

/// Job i of wave w, a pure function of (seed, wave, index): identical
/// across runs.
Job synthetic_job(std::uint64_t seed, std::size_t wave, std::size_t i) {
  SplitMix64 mix(seed ^ (0x6a6f62ULL << 32) ^ (wave * 0x9e3779b97f4a7c15ULL + i));
  static const int kProcs[] = {4, 8, 16, 32};
  Job job;
  job.id = static_cast<JobId>(wave * kWaveJobs * 2 + i);
  job.kind = JobKind::Campaign;
  job.processors = kProcs[mix.next() % 4];
  job.runtime_hours = 1.0 + 4.0 * (static_cast<double>(mix.next() >> 11) * 0x1.0p-53);
  job.checkpoint_interval_hours = 1.0;
  return job;
}

FaultConfig fault_config(bool lazy) {
  FaultConfig faults;
  faults.seed = kSeed;
  faults.site_mtbf_hours = 300.0;
  faults.mean_outage_hours = 2.0;
  faults.horizon_hours = 200.0;
  faults.lazy_arming = lazy;
  return faults;
}

// --- measurement helpers -----------------------------------------------------

/// Peak RSS in MiB: VmHWM from /proc/self/status, getrusage fallback.
double peak_rss_mib() {
  if (std::ifstream status("/proc/self/status"); status) {
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void f64(double x) { bytes(&x, sizeof(x)); }
  void u64(std::uint64_t x) { bytes(&x, sizeof(x)); }
};

struct ArmResult {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  double makespan_hours = 0.0;
  double peak_rss_mib = 0.0;
  std::size_t peak_rows = 0;
  std::uint64_t digest = 0;

  [[nodiscard]] double events_per_sec() const { return events / wall_s; }
};

void hash_campaign(Fnv1a& fnv, const CampaignResult& r) {
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
}

// --- arms --------------------------------------------------------------------

/// Run `waves` × `jobs_per_wave` jobs through the event queue,
/// JobTable and streaming metrics, one Broker per wave so rows and names
/// recycle across the campaign.
ArmResult run_arm(std::size_t waves, std::size_t jobs_per_wave) {
  EventQueue events;
  Federation federation(events);
  build_synthetic_federation(federation, kSites, kSeed);
  FaultInjector injector(federation, fault_config(/*lazy=*/true));
  injector.arm();

  ArmResult arm;
  Fnv1a fnv;
  const double t0 = obs::now_us();
  double first_submit = 0.0;
  for (std::size_t wave = 0; wave < waves; ++wave) {
    CampaignConfig config;
    config.job_factory = [wave](std::size_t i) { return synthetic_job(kSeed, wave, i); };
    config.job_count = jobs_per_wave;
    config.policy = BrokerPolicy::LeastBacklog;
    config.max_requeues = 10;
    config.retry.max_holds = 200;
    Broker broker(federation, config);
    if (wave == 0) first_submit = events.now();
    broker.submit_all();
    while (!broker.done() && events.step()) {
    }
    const CampaignResult result = broker.result();
    arm.completed += result.completed;
    arm.failed += result.failed;
    hash_campaign(fnv, result);
  }
  arm.wall_s = (obs::now_us() - t0) * 1e-6;
  arm.events = events.processed();
  arm.makespan_hours = events.now() - first_submit;
  arm.peak_rows = federation.jobs().peak_rows();
  arm.digest = fnv.h;
  arm.peak_rss_mib = peak_rss_mib();
  return arm;
}

/// Run an arm twice (the replay-digest gate), print both runs and record
/// the first under `name`; returns it and sets `replay`.
ArmResult run_replayed(Claim& claim, const std::string& name, std::size_t waves,
                       std::size_t jobs_per_wave, bool& replay) {
  const ArmResult arm = run_arm(waves, jobs_per_wave);
  const std::string row_bytes = waves > 1 ? fmt(" (%zu B/row)", JobTable::bytes_per_row()) : "";
  std::printf("  %.2f s, %" PRIu64 " events (%.0f ev/s), %zu completed / %zu failed, "
              "peak rows %zu%s, digest %016" PRIx64 "\n",
              arm.wall_s, arm.events, arm.events_per_sec(), arm.completed, arm.failed,
              arm.peak_rows, row_bytes.c_str(), arm.digest);
  const std::uint64_t rerun = run_arm(waves, jobs_per_wave).digest;
  replay = arm.digest == rerun;
  std::printf("  rerun digest %016" PRIx64 " -> %s\n", rerun,
              replay ? "bit-identical" : "DIVERGED");
  claim.set_group(name, {{"jobs", waves * jobs_per_wave}, {"waves", waves},
                         {"wall_s", arm.wall_s}, {"events", arm.events},
                         {"events_per_sec", arm.events_per_sec()}, {"completed", arm.completed},
                         {"failed", arm.failed}, {"makespan_hours", arm.makespan_hours},
                         {"peak_rows", arm.peak_rows}, {"peak_rss_mib", arm.peak_rss_mib}});
  claim.set(name + ".digest", fmt("%016" PRIx64, arm.digest));
  return arm;
}

}  // namespace

void spice::claims::grid_scale(Claim& claim) {
  const bool smoke = claim.smoke();

  std::printf("\nfederation: %zu synthetic sites, seed %" PRIu64 ", lazy fault arming "
              "(MTBF %.0f h)\n",
              kSites, kSeed, fault_config(true).site_mtbf_hours);
  claim.set_group("federation", {{"sites", kSites}, {"seed", kSeed}});

  std::printf("\n[new_100k] %zu jobs, 1 wave ...\n", kGateJobs);
  bool gate_replay = false;
  const ArmResult new_gate = run_replayed(claim, "new_100k", 1, kGateJobs, gate_replay);

  ArmResult new_million;
  bool million_replay = true;
  if (!smoke) {
    std::printf("\n[new_1M] %zu waves x %zu jobs ...\n", kWaves, kWaveJobs);
    new_million = run_replayed(claim, "new_1M", kWaves, kWaveJobs, million_replay);
  }

  claim.check(gate_replay, "same-seed 100k campaign replays bit-identically");
  if (!smoke) {
    // O(active) evidence: 10× the jobs may not cost 10× the resident set.
    // VmHWM is process-monotone, so the delta over the 100k arm bounds the
    // 1M arm's extra footprint from above.
    const double million_extra_mib = new_million.peak_rss_mib - new_gate.peak_rss_mib;
    claim.set_group("new_1M", {{"bytes_per_row", JobTable::bytes_per_row()},
                               {"extra_rss_over_100k_mib", million_extra_mib}});
    claim.check(new_million.completed + new_million.failed == kWaves * kWaveJobs &&
                    new_million.failed == 0,
                fmt("1M-job faulted campaign completes (%zu completed, %zu failed)",
                    new_million.completed, new_million.failed));
    claim.check(million_replay, "same-seed 1M campaign replays bit-identically");
    claim.check(new_million.peak_rows <= 2 * kWaveJobs,
                fmt("memory stays O(active): peak rows %zu << %zu total jobs, "
                    "1M arm adds %.0f MiB over the 100k arm",
                    new_million.peak_rows, kWaves * kWaveJobs, million_extra_mib));
  }
}
