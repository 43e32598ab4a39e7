// E14 (supplementary) — §V-C.1's MPI discussion, and the sister projects'
// mode of use ("a single code instance running on several resources of a
// federated grid", NEKTAR/Vortonics): a tightly coupled MPI job spanning
// the Atlantic. Shows (a) hidden-IP infeasibility, (b) the gateway's
// rescue and its cost, (c) how the WAN latency taxes tightly coupled
// decompositions — the reason SPICE chose task farming while its sister
// projects fought MPICH-G2.

#include <cstdio>
#include <iostream>

#include "claims.hpp"
#include "net/mpi.hpp"
#include "net/qos.hpp"
#include "viz/series_writer.hpp"

using namespace spice;
using namespace spice::claims;
using namespace spice::net;

namespace {

MpiRunResult run(const MpiJobConfig& config, bool gateway) {
  Network net(41);
  net.connect_sites("NCSA", "PSC", lightpath_transatlantic());
  net.connect_sites("NCSA", "Manchester", lightpath_transatlantic());
  net.connect_sites("PSC", "Manchester", lightpath_transatlantic());
  if (gateway) net.set_site_gateway("PSC", 500.0);
  return run_mpi_job(net, config);
}

}  // namespace

void spice::claims::cross_site_mpi(Claim& claim) {
  MpiJobConfig base;
  base.iterations = 20;
  base.compute_seconds_per_iteration = 0.05;
  base.halo_bytes = 2e5;

  std::printf("\n--- Feasibility: hidden IPs kill cross-site MPI ---\n");
  base.placement = {{"NCSA", 8, false}, {"PSC", 8, true}};
  const MpiRunResult blocked = run(base, /*gateway=*/false);
  std::printf("NCSA(8) + PSC(8, hidden), no gateway : %s\n  %s\n",
              blocked.feasible ? "RUNS" : "CANNOT START", blocked.failure.c_str());
  const MpiRunResult rescued = run(base, /*gateway=*/true);
  std::printf("NCSA(8) + PSC(8, hidden), gateway    : %s (%.2f s wall)\n",
              rescued.feasible ? "RUNS" : "CANNOT START", rescued.wall_seconds);

  std::printf("\n--- Decomposition sweep: where do the ranks live? ---\n");
  viz::Table table({"scenario", "ranks", "wall_s", "comm_fraction", "wan_msgs"});
  struct Scenario {
    const char* label;
    std::vector<MpiSitePlacement> placement;
  };
  const Scenario scenarios[] = {
      {"all at NCSA", {{"NCSA", 16, false}}},
      {"US split (NCSA+PSC)", {{"NCSA", 8, false}, {"PSC", 8, false}}},
      {"transatlantic (NCSA+Manchester)", {{"NCSA", 8, false}, {"Manchester", 8, false}}},
      {"three sites", {{"NCSA", 6, false}, {"PSC", 5, false}, {"Manchester", 5, false}}},
  };
  double single_site_wall = 0.0;
  double transatlantic_wall = 0.0;
  int idx = 0;
  for (const auto& s : scenarios) {
    MpiJobConfig config = base;
    config.placement = s.placement;
    const MpiRunResult r = run(config, false);
    table.add_row({static_cast<double>(idx), static_cast<double>(r.total_ranks),
                   r.wall_seconds, r.communication_fraction(),
                   static_cast<double>(r.wan_messages)});
    std::printf("  scenario %d = %s\n", idx, s.label);
    if (idx == 0) single_site_wall = r.wall_seconds;
    if (idx == 2) transatlantic_wall = r.wall_seconds;
    ++idx;
  }
  table.write_pretty(std::cout, 3);

  claim.check(!blocked.feasible, "hidden-IP cross-site MPI cannot start without a gateway");
  claim.check(rescued.feasible, "the gateway makes it feasible");
  claim.check(transatlantic_wall > 1.2 * single_site_wall,
              fmt("trans-Atlantic decomposition pays a real latency tax "
                  "(%.2f s vs %.2f s single-site)",
                  transatlantic_wall, single_site_wall));
  std::printf("(this is why SPICE task-farms independent SMD pulls instead of running\n"
              " one tightly coupled code across the Atlantic — paper §II)\n");
}
