// Quickstart: the 60-second tour of the SPICE library.
//
//   1. build the translocation system (CG ssDNA + implicit hemolysin pore);
//   2. attach a constant-velocity SMD spring to the strand's head bead;
//   3. run an ensemble of pulls;
//   4. recover the free-energy profile with Jarzynski's equality.
//
// Build & run:   ./build/examples/quickstart

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "fe/jarzynski.hpp"
#include "md/ensemble_engine.hpp"
#include "pore/system.hpp"
#include "smd/pulling.hpp"
#include "viz/ascii_render.hpp"

using namespace spice;

int main() {
  // 1. The system: a 12-nucleotide single strand threaded through the
  //    alpha-hemolysin-like pore, implicit solvent, 300 K Langevin.
  pore::TranslocationConfig config;
  config.dna.nucleotides = 12;
  config.equilibration_steps = 2000;
  config.md.seed = 1;
  pore::TranslocationSystem system = pore::build_translocation_system(config);

  std::printf("System: %zu beads, T = %.0f K\n",
              system.engine.topology().particle_count(),
              system.engine.instantaneous_temperature());
  std::cout << viz::render_side_view(system.pore->profile(), system.engine.positions());

  // 2-3. An ensemble of SMD pulls at the paper's optimal parameters
  //      (kappa = 100 pN/A, v amplified for a quick demo).
  smd::SmdParams params;
  params.spring_pn_per_angstrom = 100.0;
  params.velocity_angstrom_per_ns = 100.0;
  params.smd_atoms = {system.dna_selection.front()};  // the C3'-equivalent bead

  //    Each replica starts from the equilibrated system under its own
  //    stochastic seed; the ensemble steps them all together.
  constexpr double kDistance = 5.0;  // Å
  const std::vector<std::uint64_t> seeds{100, 101, 102, 103, 104, 105};
  md::EnsembleEngine replicas(system.engine, seeds);
  const std::vector<smd::PullResult> pulls = smd::run_pulls(replicas, params, kDistance);
  for (std::size_t replica = 0; replica < pulls.size(); ++replica) {
    std::printf("replica %zu: pulled %.1f A in %llu steps, W = %+.2f kcal/mol\n", replica,
                pulls[replica].pulled_distance,
                static_cast<unsigned long long>(pulls[replica].steps),
                pulls[replica].samples.back().work);
  }

  // 4. Jarzynski: Φ(λ) = −kT ln ⟨exp(−βW(λ))⟩ over the ensemble.
  const fe::WorkEnsemble ensemble = fe::grid_work_ensemble(pulls, kDistance, 11);
  const fe::PmfEstimate pmf =
      fe::estimate_pmf(ensemble, config.md.temperature, fe::Estimator::Exponential);

  std::printf("\nFree-energy profile along the pore axis:\n");
  std::printf("  displacement (A)   Phi (kcal/mol)\n");
  for (std::size_t g = 0; g < pmf.lambda.size(); ++g) {
    std::printf("  %16.1f   %+.2f\n", pmf.lambda[g], pmf.phi[g]);
  }
  std::printf("\nmean dissipated work: %.2f kcal/mol\n",
              fe::mean_dissipated_work(ensemble, config.md.temperature));
  return 0;
}
