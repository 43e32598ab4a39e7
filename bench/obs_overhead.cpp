// Observability overhead on the MD hot path (DESIGN.md §8).
//
// Measures steady-state force-evaluation cost (the BM_ForceEval workload:
// 600-bead dense charged chain, kernel path, no rebuilds) across the obs
// tiers, interleaved round-robin so drift hits every tier equally:
//
//   disabled — obs compiled in, every runtime switch off (recorder too)
//   recorder — the always-on flight recorder alone (its shipping default):
//              per-eval ring writes, everything else off
//   metrics  — recorder + counters/histograms (engine, pool, per-eval)
//   tracing  — metrics + process tracer (per-eval phase spans)
//   detail   — tracing + per-kernel×per-slice time attribution
//   exporter — detail + a live SnapshotExporter streaming the registry to
//              Prometheus text + JSONL files at 1 Hz from its own thread
//
// The disabled tier IS the baseline: its only instruction-level cost is
// the relaxed flag loads guarding each instrumentation site, which a
// separate microbenchmark prices directly (guard_cost_per_eval_pct). The
// claim checks bound that guard cost at ≤2%, the always-on recorder rung
// at ≤2% over the all-off baseline (it ships enabled, so its price IS the
// default overhead), and the whole ladder — up to and including the
// exporter tier — at ≤8% over disabled.
//
// Writes BENCH_obs_overhead.json with per-tier timings and verdicts.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "md/engine.hpp"
#include "obs/obs.hpp"

using namespace spice;
using namespace spice::md;

namespace {

constexpr std::size_t kBeads = 600;
constexpr std::size_t kEvalsPerRound = 400;
constexpr std::size_t kRounds = 7;

std::vector<Vec3> random_positions(std::size_t n, double box, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> xs(n);
  for (auto& x : xs) {
    x = {rng.uniform(-box, box), rng.uniform(-box, box), rng.uniform(-box, box)};
  }
  return xs;
}

/// Same workload as bench/md_kernels.cpp's BM_ForceEval.
Engine make_force_eval_engine(std::size_t threads) {
  Topology topo;
  for (std::size_t i = 0; i < kBeads; ++i) {
    topo.add_particle({.mass = 300.0, .charge = -1.0, .radius = 4.0, .name = "NT"});
  }
  for (ParticleIndex i = 0; i + 1 < kBeads; ++i) topo.add_bond({i, i + 1, 10.0, 7.0});
  for (ParticleIndex i = 0; i + 2 < kBeads; ++i) {
    topo.add_angle({i, i + 1, i + 2, 5.0, 3.14159});
  }
  for (ParticleIndex i = 0; i + 3 < kBeads; ++i) {
    topo.add_dihedral({i, i + 1, i + 2, i + 3, 0.5, 1, 0.0});
  }
  MdConfig cfg;
  cfg.threads = threads;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  engine.set_positions(random_positions(kBeads, 35.0, 11));
  return engine;
}

enum class Tier { Disabled = 0, Recorder, Metrics, Tracing, Detail, Exporter };
constexpr int kTiers = 6;
constexpr const char* kTierNames[] = {"disabled", "recorder", "metrics",
                                      "tracing",  "detail",   "exporter"};

void apply_tier(Tier tier, obs::Tracer* tracer) {
  // The recorder ships ON; the all-off baseline must switch it off
  // explicitly. Every tier above Disabled keeps it on (always-on tier).
  obs::set_recorder_enabled(tier >= Tier::Recorder);
  obs::set_metrics_enabled(tier >= Tier::Metrics);
  obs::set_detail_enabled(tier >= Tier::Detail);
  const bool tracing = tier >= Tier::Tracing;
  obs::set_tracing_enabled(tracing);
  obs::set_process_tracer(tracing ? tracer : nullptr);
}

/// µs per force evaluation over one timed burst.
double time_burst_us(Engine& engine) {
  const double t0 = obs::now_us();
  double sink = 0.0;
  for (std::size_t i = 0; i < kEvalsPerRound; ++i) {
    sink += engine.compute_energies().total();
  }
  const double elapsed = obs::now_us() - t0;
  // Keep the accumulated energy observable so the loop cannot fold away.
  if (sink == std::numeric_limits<double>::infinity()) std::printf("%f", sink);
  return elapsed / static_cast<double>(kEvalsPerRound);
}

struct TierTiming {
  double best_us = std::numeric_limits<double>::infinity();
};

/// Min-of-rounds per tier, tiers interleaved within every round.
std::vector<TierTiming> measure(std::size_t threads) {
  Engine engine = make_force_eval_engine(threads);
  engine.compute_energies();  // warm up: neighbour build + segment refresh
  std::vector<TierTiming> timing(kTiers);
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (int t = 0; t < kTiers; ++t) {
      // Fresh tracer per burst so event-buffer growth cannot compound
      // across rounds (a real session saves and discards traces too).
      obs::Tracer tracer("obs_overhead");
      apply_tier(static_cast<Tier>(t), &tracer);
      double us;
      if (static_cast<Tier>(t) == Tier::Exporter) {
        // Top of the ladder: everything on PLUS a live snapshot exporter
        // self-sampling the registry at 1 Hz and writing both file formats
        // from its background thread while the hot path runs.
        obs::ExporterConfig ec;
        ec.prometheus_path = "bench_obs_overhead.prom";
        ec.jsonl_path = "bench_obs_overhead.jsonl";
        ec.period_s = 1.0;
        obs::SnapshotExporter exporter(ec);
        exporter.start();
        us = time_burst_us(engine);
        exporter.stop();
      } else {
        us = time_burst_us(engine);
      }
      timing[static_cast<std::size_t>(t)].best_us =
          std::min(timing[static_cast<std::size_t>(t)].best_us, us);
    }
  }
  apply_tier(Tier::Disabled, nullptr);
  obs::set_recorder_enabled(true);  // restore the shipping default
  return timing;
}

double overhead_pct(double tier_us, double base_us) {
  return 100.0 * (tier_us - base_us) / base_us;
}

/// Price one disabled guard (relaxed flag load + predictable branch) by
/// hammering a Counter::add with metrics off.
double disabled_guard_ns() {
  obs::set_metrics_enabled(false);
  obs::Counter counter;
  constexpr std::size_t kIters = 4'000'000;
  double best_ns = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 3; ++round) {
    const double t0 = obs::now_us();
    for (std::size_t i = 0; i < kIters; ++i) counter.add(1);
    best_ns = std::min(best_ns, (obs::now_us() - t0) * 1e3 / kIters);
  }
  if (counter.value() != 0) std::printf("unexpected counter value\n");
  return best_ns;
}

}  // namespace

int main() {
  std::printf("================================================================\n");
  std::printf("obs overhead | force evaluation across observability tiers\n");
  std::printf("================================================================\n\n");

  const auto t1 = measure(1);
  const auto t4 = measure(4);

  std::printf("%-10s  %14s  %14s\n", "tier", "threads=1 (us)", "threads=4 (us)");
  for (int t = 0; t < kTiers; ++t) {
    std::printf("%-10s  %14.2f  %14.2f\n", kTierNames[t], t1[t].best_us, t4[t].best_us);
  }

  const double base1 = t1[0].best_us;
  const double recorder_pct = overhead_pct(t1[1].best_us, base1);
  const double metrics_pct = overhead_pct(t1[2].best_us, base1);
  const double tracing_pct = overhead_pct(t1[3].best_us, base1);
  const double detail_pct = overhead_pct(t1[4].best_us, base1);
  const double exporter_pct = overhead_pct(t1[5].best_us, base1);

  // Disabled-path cost: guards on the eval path while everything is off.
  // Per evaluation: 1 force_evals counter + ~2 trace guards + ~16 slice
  // counter guards via the pool/step path — call it 24 to stay generous.
  const double guard_ns = disabled_guard_ns();
  constexpr double kGuardsPerEval = 24.0;
  const double disabled_pct = 100.0 * (kGuardsPerEval * guard_ns * 1e-3) / base1;

  std::printf("\nguard cost (metrics off): %.2f ns/site -> %.4f%% of one eval "
              "(%.0f sites)\n",
              guard_ns, disabled_pct, kGuardsPerEval);
  std::printf("overhead vs disabled (threads=1): recorder %+.2f%%, metrics %+.2f%%, "
              "tracing %+.2f%%, detail %+.2f%%, exporter %+.2f%%\n",
              recorder_pct, metrics_pct, tracing_pct, detail_pct, exporter_pct);

  const bool disabled_ok = disabled_pct <= 2.0;
  const bool recorder_ok = recorder_pct <= 2.0;
  const bool tracing_ok = tracing_pct <= 8.0;
  const double ladder_max_pct =
      std::max({recorder_pct, metrics_pct, tracing_pct, detail_pct, exporter_pct});
  const bool ladder_ok = ladder_max_pct <= 8.0;

  std::printf("\n--- Claim checks ---\n");
  std::printf("[%s] obs compiled in but disabled costs <= 2%% of a force eval\n",
              disabled_ok ? "PASS" : "FAIL");
  std::printf("[%s] always-on flight recorder costs <= 2%% over all-off (%+.2f%%)\n",
              recorder_ok ? "PASS" : "FAIL", recorder_pct);
  std::printf("[%s] full tracing (metrics + process tracer) costs <= 8%%\n",
              tracing_ok ? "PASS" : "FAIL");
  std::printf("[%s] full ladder incl. 1 Hz exporter stays <= 8%% (max %+.2f%%)\n",
              ladder_ok ? "PASS" : "FAIL", ladder_max_pct);

  std::ofstream json("BENCH_obs_overhead.json");
  json << "{\n"
       << " \"bench\": \"obs_overhead\",\n"
       << " \"workload\": \"force_eval_600_beads_kernel_path\",\n"
       << " \"evals_per_round\": " << kEvalsPerRound << ",\n"
       << " \"rounds\": " << kRounds << ",\n"
       << " \"per_eval_us\": {\n";
  for (int threads : {1, 4}) {
    const auto& timing = threads == 1 ? t1 : t4;
    json << "  \"threads_" << threads << "\": {";
    for (int t = 0; t < kTiers; ++t) {
      json << "\"" << kTierNames[t] << "\": " << timing[t].best_us
           << (t + 1 < kTiers ? ", " : "");
    }
    json << (threads == 1 ? "},\n" : "}\n");
  }
  json << " },\n"
       << " \"disabled_guard_ns\": " << guard_ns << ",\n"
       << " \"disabled_overhead_pct\": " << disabled_pct << ",\n"
       << " \"recorder_overhead_pct\": " << recorder_pct << ",\n"
       << " \"metrics_overhead_pct\": " << metrics_pct << ",\n"
       << " \"tracing_overhead_pct\": " << tracing_pct << ",\n"
       << " \"detail_overhead_pct\": " << detail_pct << ",\n"
       << " \"exporter_overhead_pct\": " << exporter_pct << ",\n"
       << " \"claims\": {\n"
       << "  \"disabled_within_2pct\": " << (disabled_ok ? "true" : "false") << ",\n"
       << "  \"recorder_within_2pct\": " << (recorder_ok ? "true" : "false") << ",\n"
       << "  \"tracing_within_8pct\": " << (tracing_ok ? "true" : "false") << ",\n"
       << "  \"full_ladder_within_8pct\": " << (ladder_ok ? "true" : "false") << "\n"
       << " }\n"
       << "}\n";
  std::printf("\nwrote BENCH_obs_overhead.json\n");

  return (disabled_ok && recorder_ok && tracing_ok && ladder_ok) ? 0 : 1;
}
