#pragma once
// The force-evaluation workload shared by md_kernels' BM_ForceEval and the
// E16 obs_overhead ladder: a dense charged chain whose bonded terms run
// the chain while the random packing gives each bead tens of nonbonded
// neighbours (the dominant per-step cost, as in the translocation system).

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "md/engine.hpp"

namespace spice::bench {

inline std::vector<Vec3> random_positions(std::size_t n, double box, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> xs(n);
  for (auto& x : xs) {
    x = {rng.uniform(-box, box), rng.uniform(-box, box), rng.uniform(-box, box)};
  }
  return xs;
}

inline md::Engine make_force_eval_engine(std::size_t beads, std::size_t threads) {
  using namespace spice::md;
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

}  // namespace spice::bench
