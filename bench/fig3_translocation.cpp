// E4 — Fig. 3: snapshots of the ssDNA translocating through the
// alpha-hemolysin pore; the strand is steered along the pore axis by a
// force on the head (C3'-equivalent) bead and visibly STRETCHES as it
// passes the constriction in the beta-barrel.
//
// Output: three ASCII side-view snapshots (early / mid / late pull), the
// bond-strain profile vs axial position, and the head-bead z(t) series.
// An XYZ trajectory is written to fig3_trajectory.xyz for real viewers.

#include <cstdio>
#include <iostream>
#include <memory>

#include "md/observables.hpp"
#include "pore/system.hpp"
#include "smd/pulling.hpp"
#include "viz/ascii_render.hpp"
#include "viz/series_writer.hpp"
#include "viz/xyz_writer.hpp"

using namespace spice;

int main() {
  std::printf("================================================================\n");
  std::printf("E4 | Fig. 3: ssDNA translocation snapshots & constriction stretch\n");
  std::printf("================================================================\n");

  pore::TranslocationConfig config;
  config.dna.nucleotides = 14;
  config.head_z = -8.0;
  config.equilibration_steps = 3000;
  config.md.seed = 31;
  pore::TranslocationSystem system = pore::build_translocation_system(config);

  smd::SmdParams params;
  params.spring_pn_per_angstrom = 400.0;  // firm grip for a clean visual
  params.velocity_angstrom_per_ns = 100.0;
  params.smd_atoms = {system.dna_selection.front()};
  auto pull = std::make_shared<smd::ConstantVelocityPull>(params);
  pull->attach(system.engine);
  system.engine.add_contribution(pull);

  viz::XyzTrajectoryWriter trajectory("fig3_trajectory.xyz");
  viz::RenderOptions render;
  render.z_min = -70.0;
  render.z_max = 60.0;

  const double total_distance = 20.0;
  viz::Table series({"time_ps", "lambda_A", "head_z_A", "max_strain", "spring_force"});

  const double dt = system.engine.config().dt;
  const double v = params.velocity_internal();
  const auto steps_total = static_cast<std::size_t>(total_distance / (v * dt));
  const std::size_t steps_per_chunk = steps_total / 60;

  int next_snapshot = 0;
  for (std::size_t chunk = 0; chunk <= 60; ++chunk) {
    if (chunk > 0) system.engine.step(steps_per_chunk);
    const auto strains =
        md::bond_extension_profile(system.engine.positions(), system.engine.topology());
    double max_strain = 0.0;
    for (const auto& b : strains) max_strain = std::max(max_strain, b.strain());
    series.add_row({system.engine.time(), pull->lambda(),
                    system.engine.positions()[0].z, max_strain, pull->spring_force()});
    trajectory.add_frame(system.engine.topology(), system.engine.positions(),
                         "t=" + std::to_string(system.engine.time()) + "ps");

    if (chunk == 0 || chunk == 30 || chunk == 60) {
      const char* stage[] = {"(a) pull begins", "(b) mid translocation",
                             "(c) strand drawn through"};
      std::printf("\nFig 3%s — lambda = %.1f A, head z = %.1f A\n",
                  stage[next_snapshot] + 0, pull->lambda(),
                  system.engine.positions()[0].z);
      std::cout << viz::render_side_view(system.pore->profile(),
                                         system.engine.positions(), render);
      ++next_snapshot;
    }
  }

  std::printf("\n--- Bond strain vs axial position (final frame) ---\n");
  std::printf("    (positive strain = stretched; peak should sit near the\n");
  std::printf("     constriction at z ~ 0, the paper's Fig. 3 observation)\n");
  viz::Table strain_table({"bond_mid_z_A", "length_A", "strain"});
  double peak_strain = 0.0;
  double peak_z = 0.0;
  const auto strains =
      md::bond_extension_profile(system.engine.positions(), system.engine.topology());
  for (const auto& b : strains) {
    strain_table.add_row({b.mid_z, b.length, b.strain()});
    if (b.strain() > peak_strain) {
      peak_strain = b.strain();
      peak_z = b.mid_z;
    }
  }
  strain_table.write_pretty(std::cout, 3);

  std::printf("\n--- Pull series (head z follows the anchor through the pore) ---\n");
  viz::Table sparse({"time_ps", "lambda_A", "head_z_A", "max_strain", "spring_force"});
  for (std::size_t r = 0; r < series.rows(); r += 10) sparse.add_row(series.row(r));
  sparse.write_pretty(std::cout, 2);

  std::printf("\n[%s] peak bond strain (%.2f) is positive and sits inside the pore "
              "(z = %.1f A in [-50, 10])\n",
              (peak_strain > 0.02 && peak_z > -50.0 && peak_z < 10.0) ? "PASS" : "FAIL",
              peak_strain, peak_z);
  std::printf("XYZ trajectory written to fig3_trajectory.xyz (%zu frames)\n",
              trajectory.frames_written());
  return 0;
}
