// E13 — engine microbenchmarks (google-benchmark): force kernels,
// neighbour-list rebuilds, integrator steps and the JE estimator. These
// support the E5 scaling model with measured per-step costs of the
// coarse-grained substrate.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "fe/jarzynski.hpp"
#include "md/engine.hpp"
#include "md/forcefield.hpp"
#include "md/neighbor_list.hpp"
#include "pore/pore_potential.hpp"
#include "pore/system.hpp"
#include "smd/pulling.hpp"

using namespace spice;
using namespace spice::md;

namespace {

std::vector<Vec3> random_positions(std::size_t n, double box, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> xs(n);
  for (auto& x : xs) {
    x = {rng.uniform(-box, box), rng.uniform(-box, box), rng.uniform(-box, box)};
  }
  return xs;
}

void BM_NonbondedPair(benchmark::State& state) {
  const NonbondedParams params;
  const Vec3 ri{0, 0, 0};
  const Vec3 rj{0.5, 1.0, 3.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(nonbonded_pair(ri, rj, -1.0, -1.0, 6.0, params));
  }
}
BENCHMARK(BM_NonbondedPair);

void BM_PorePotential(benchmark::State& state) {
  const auto pore = spice::pore::make_hemolysin_pore();
  const Vec3 r{2.0, 1.0, -20.0};
  Vec3 f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pore->particle_energy_force(r, -1.0, f));
  }
}
BENCHMARK(BM_PorePotential);

void BM_NeighborListRebuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Topology topo;
  for (std::size_t i = 0; i < n; ++i) topo.add_particle({.mass = 1.0, .radius = 1.0});
  const auto xs = random_positions(n, 30.0, 1);
  NeighborList list(10.0, 2.0);
  for (auto _ : state) {
    list.rebuild(xs, topo);
    benchmark::DoNotOptimize(list.cell_count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NeighborListRebuild)->Arg(64)->Arg(256)->Arg(1024);

void BM_EngineStep(benchmark::State& state) {
  const auto beads = static_cast<std::size_t>(state.range(0));
  spice::pore::TranslocationConfig config;
  config.dna.nucleotides = beads;
  config.equilibration_steps = 100;
  auto system = spice::pore::build_translocation_system(config);
  for (auto _ : state) {
    system.engine.step();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(beads));
}
BENCHMARK(BM_EngineStep)->Arg(12)->Arg(24)->Arg(48);

void BM_SmdPullStep(benchmark::State& state) {
  spice::pore::TranslocationConfig config;
  config.dna.nucleotides = 12;
  config.equilibration_steps = 100;
  auto system = spice::pore::build_translocation_system(config);
  smd::SmdParams params;
  params.smd_atoms = {0};
  auto pull = std::make_shared<smd::ConstantVelocityPull>(params);
  pull->attach(system.engine);
  system.engine.add_contribution(pull);
  for (auto _ : state) {
    system.engine.step();
  }
}
BENCHMARK(BM_SmdPullStep);

/// Dense charged chain for the force-evaluation rows: the bonded terms run
/// the chain, the random packing gives each bead tens of nonbonded
/// neighbours (the dominant per-step cost, as in the translocation system).
Engine make_force_eval_engine(std::size_t beads, std::size_t threads) {
  Topology topo;
  for (std::size_t i = 0; i < beads; ++i) {
    topo.add_particle({.mass = 300.0, .charge = -1.0, .radius = 4.0, .name = "NT"});
  }
  for (ParticleIndex i = 0; i + 1 < beads; ++i) topo.add_bond({i, i + 1, 10.0, 7.0});
  for (ParticleIndex i = 0; i + 2 < beads; ++i) topo.add_angle({i, i + 1, i + 2, 5.0, 3.14159});
  for (ParticleIndex i = 0; i + 3 < beads; ++i) {
    topo.add_dihedral({i, i + 1, i + 2, i + 3, 0.5, 1, 0.0});
  }
  MdConfig cfg;
  cfg.threads = threads;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  engine.set_positions(random_positions(beads, 35.0, 11));
  return engine;
}

/// Steady-state force-evaluation cost (no rebuilds) across thread counts.
/// arg0: threads.
void BM_ForceEval(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  Engine engine = make_force_eval_engine(600, threads);
  engine.compute_energies();  // warm up: neighbour build + segment refresh
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.compute_energies().total());
  }
  state.SetItemsProcessed(state.iterations() * 600);
}

/// Thread rows up to the host's hardware threads: a row with more workers
/// than cores measures oversubscription, not the pipeline.
void force_eval_thread_rows(benchmark::internal::Benchmark* b) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    if (threads <= cores) b->Arg(threads);
  }
}
BENCHMARK(BM_ForceEval)->ArgNames({"threads"})->Apply(force_eval_thread_rows)->UseRealTime();

void BM_JarzynskiEstimate(benchmark::State& state) {
  const auto trajectories = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  fe::WorkEnsemble ensemble;
  ensemble.lambda.resize(21);
  for (std::size_t g = 0; g < 21; ++g) ensemble.lambda[g] = 0.5 * g;
  for (std::size_t t = 0; t < trajectories; ++t) {
    std::vector<double> w(21);
    double acc = 0.0;
    for (auto& x : w) {
      acc += rng.gaussian(0.5, 0.3);
      x = acc;
    }
    ensemble.work.push_back(std::move(w));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fe::estimate_pmf(ensemble, 300.0, fe::Estimator::Exponential));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(trajectories));
}
BENCHMARK(BM_JarzynskiEstimate)->Arg(16)->Arg(128)->Arg(1024);

void BM_CheckpointRoundTrip(benchmark::State& state) {
  spice::pore::TranslocationConfig config;
  config.dna.nucleotides = 24;
  auto system = spice::pore::build_translocation_system(config);
  for (auto _ : state) {
    const Checkpoint snap = system.engine.checkpoint();
    system.engine.restore(snap);
    benchmark::DoNotOptimize(snap.bytes.size());
  }
}
BENCHMARK(BM_CheckpointRoundTrip);

}  // namespace

BENCHMARK_MAIN();
