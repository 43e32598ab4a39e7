// Million-job grid DES scaling study on the O(active) substrate.
//
// Arms:
//   new_100k   — 100k jobs / 1000 sites on the calendar queue + flyweight
//                JobTable + streaming metrics (two same-seed runs → replay
//                digest equality);
//   new_1M     — 1M jobs as 20 sequential 50k-job waves (one Broker per
//                wave, rows recycled between waves) with lazy fault
//                arming; two same-seed runs → replay digest equality.
//
// Reports broker events/sec, peak RSS (VmHWM), JobTable peak_rows /
// bytes_per_row, and the FNV-1a replay digests; writes
// BENCH_grid_scale.json. `--smoke` runs the 100k-job determinism check
// only (the CI gate). Exits non-zero when any printed check fails.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <sys/resource.h>

#include "common/rng.hpp"
#include "grid/faults.hpp"
#include "grid/federation.hpp"
#include "grid/metrics.hpp"

using namespace spice;
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

double wall_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

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

// --- new arm -----------------------------------------------------------------

/// Run `waves` × `jobs_per_wave` jobs through the refactored stack, one
/// Broker per wave so rows and names recycle across the campaign.
ArmResult run_new_arm(std::size_t waves, std::size_t jobs_per_wave) {
  EventQueue events;
  Federation federation(events);
  build_synthetic_federation(federation, kSites, kSeed);
  FaultInjector injector(federation, fault_config(/*lazy=*/true));
  injector.arm();

  ArmResult arm;
  Fnv1a fnv;
  const auto t0 = std::chrono::steady_clock::now();
  double first_submit = 0.0;
  for (std::size_t wave = 0; wave < waves; ++wave) {
    CampaignConfig config;
    config.job_factory = [wave](std::size_t i) { return synthetic_job(kSeed, wave, i); };
    config.job_count = jobs_per_wave;
    config.policy = BrokerPolicy::LeastBacklog;
    config.keep_finished_jobs = false;
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
  arm.wall_s = wall_seconds(t0);
  arm.events = events.processed();
  arm.makespan_hours = events.now() - first_submit;
  arm.peak_rows = federation.jobs().peak_rows();
  arm.digest = fnv.h;
  arm.peak_rss_mib = peak_rss_mib();
  return arm;
}

}  // namespace

// --- driver ------------------------------------------------------------------

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";

  std::printf("================================================================\n");
  std::printf("Grid DES at scale | calendar queue + flyweight rows\n");
  std::printf("================================================================\n");
  std::printf("\nfederation: %zu synthetic sites, seed %llu, lazy fault arming "
              "(MTBF %.0f h)\n",
              kSites, static_cast<unsigned long long>(kSeed),
              fault_config(true).site_mtbf_hours);

  // Run the gate arm twice for the replay-digest check.
  std::printf("\n[new_100k] %zu jobs, 1 wave ...\n", kGateJobs);
  const ArmResult new_gate = run_new_arm(1, kGateJobs);
  std::printf("  %.2f s, %llu events (%.0f ev/s), %zu completed / %zu failed, "
              "peak rows %zu, digest %016llx\n",
              new_gate.wall_s, static_cast<unsigned long long>(new_gate.events),
              new_gate.events_per_sec(), new_gate.completed, new_gate.failed,
              new_gate.peak_rows, static_cast<unsigned long long>(new_gate.digest));
  const ArmResult new_gate2 = run_new_arm(1, kGateJobs);
  const bool gate_replay = new_gate.digest == new_gate2.digest;
  std::printf("  rerun digest %016llx -> %s\n",
              static_cast<unsigned long long>(new_gate2.digest),
              gate_replay ? "bit-identical" : "DIVERGED");

  ArmResult new_million;
  ArmResult new_million2;
  bool million_replay = true;
  if (!smoke) {
    std::printf("\n[new_1M] %zu waves x %zu jobs ...\n", kWaves, kWaveJobs);
    new_million = run_new_arm(kWaves, kWaveJobs);
    std::printf("  %.2f s, %llu events (%.0f ev/s), %zu completed / %zu failed, "
                "peak rows %zu (%zu B/row), digest %016llx\n",
                new_million.wall_s, static_cast<unsigned long long>(new_million.events),
                new_million.events_per_sec(), new_million.completed, new_million.failed,
                new_million.peak_rows, JobTable::bytes_per_row(),
                static_cast<unsigned long long>(new_million.digest));
    new_million2 = run_new_arm(kWaves, kWaveJobs);
    million_replay = new_million.digest == new_million2.digest;
    std::printf("  rerun digest %016llx -> %s\n",
                static_cast<unsigned long long>(new_million2.digest),
                million_replay ? "bit-identical" : "DIVERGED");
  }

  // O(active) evidence: 10× the jobs may not cost 10× the resident set.
  // VmHWM is process-monotone, so the delta over the 100k arm bounds the
  // 1M arm's extra footprint from above.
  const double million_extra_mib =
      smoke ? 0.0 : new_million.peak_rss_mib - new_gate.peak_rss_mib;

  std::printf("\n--- Claim checks ---\n");
  std::printf("[%s] same-seed 100k campaign replays bit-identically\n",
              gate_replay ? "PASS" : "FAIL");
  bool complete = true;
  bool bounded_rows = true;
  if (!smoke) {
    complete = new_million.completed + new_million.failed == kWaves * kWaveJobs &&
               new_million.failed == 0;
    bounded_rows = new_million.peak_rows <= 2 * kWaveJobs;
    std::printf("[%s] 1M-job faulted campaign completes (%zu completed, %zu failed)\n",
                complete ? "PASS" : "FAIL", new_million.completed, new_million.failed);
    std::printf("[%s] same-seed 1M campaign replays bit-identically\n",
                million_replay ? "PASS" : "FAIL");
    std::printf("[%s] memory stays O(active): peak rows %zu << %zu total jobs, "
                "1M arm adds %.0f MiB over the 100k arm\n",
                bounded_rows ? "PASS" : "FAIL", new_million.peak_rows, kWaves * kWaveJobs,
                million_extra_mib);
  }

  std::ofstream json("BENCH_grid_scale.json");
  json << "{\n"
       << " \"bench\": \"grid_scale\",\n"
       << " \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << " \"sites\": " << kSites << ",\n"
       << " \"seed\": " << kSeed << ",\n"
       << " \"new_100k\": {\n"
       << "  \"jobs\": " << kGateJobs << ",\n"
       << "  \"wall_s\": " << new_gate.wall_s << ",\n"
       << "  \"events\": " << new_gate.events << ",\n"
       << "  \"events_per_sec\": " << new_gate.events_per_sec() << ",\n"
       << "  \"completed\": " << new_gate.completed << ",\n"
       << "  \"failed\": " << new_gate.failed << ",\n"
       << "  \"makespan_hours\": " << new_gate.makespan_hours << ",\n"
       << "  \"peak_rows\": " << new_gate.peak_rows << ",\n"
       << "  \"peak_rss_mib\": " << new_gate.peak_rss_mib << ",\n"
       << "  \"digest\": \"" << std::hex << new_gate.digest << std::dec << "\",\n"
       << "  \"replay_identical\": " << (gate_replay ? "true" : "false") << "\n"
       << " }";
  if (!smoke) {
    json << ",\n \"new_1M\": {\n"
         << "  \"jobs\": " << kWaves * kWaveJobs << ",\n"
         << "  \"waves\": " << kWaves << ",\n"
         << "  \"wall_s\": " << new_million.wall_s << ",\n"
         << "  \"events\": " << new_million.events << ",\n"
         << "  \"events_per_sec\": " << new_million.events_per_sec() << ",\n"
         << "  \"completed\": " << new_million.completed << ",\n"
         << "  \"failed\": " << new_million.failed << ",\n"
         << "  \"makespan_hours\": " << new_million.makespan_hours << ",\n"
         << "  \"peak_rows\": " << new_million.peak_rows << ",\n"
         << "  \"bytes_per_row\": " << JobTable::bytes_per_row() << ",\n"
         << "  \"peak_rss_mib\": " << new_million.peak_rss_mib << ",\n"
         << "  \"extra_rss_over_100k_mib\": " << million_extra_mib << ",\n"
         << "  \"digest\": \"" << std::hex << new_million.digest << std::dec << "\",\n"
         << "  \"replay_identical\": " << (million_replay ? "true" : "false") << "\n"
         << " }\n";
  } else {
    json << "\n";
  }
  json << "}\n";
  std::printf("\nwrote BENCH_grid_scale.json\n");

  const bool pass = gate_replay && million_replay && complete && bounded_rows;
  return pass ? 0 : 1;
}
