#pragma once
// Cross-site MPI job model (the MPICH-G2 scenario of §V-C.1).
//
// The paper's sister projects (NEKTAR, Vortonics) ran "a single code
// instance running on several resources of a federated grid", i.e. one
// MPI job spanning sites, and the paper singles out MPI applications as
// the ones that "fall particular prey to hidden IP addresses". This model
// captures the two first-order effects:
//
//   * feasibility — every rank pair that must communicate needs a route;
//     hidden-IP ranks without a gateway make the whole job unplaceable;
//   * performance — each iteration is compute + halo exchange (ring
//     neighbours) + allreduce (binomial tree); any stage that crosses the
//     WAN pays the inter-site QoS, so cross-site decompositions are
//     latency-bound exactly as real MPICH-G2 runs were.

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace spice::net {

struct MpiSitePlacement {
  std::string site;
  int ranks = 0;
  bool hidden_ip = false;
};

struct MpiJobConfig {
  std::vector<MpiSitePlacement> placement;
  std::size_t iterations = 10;
  double compute_seconds_per_iteration = 0.05;  ///< per rank, perfectly balanced
  double halo_bytes = 2e5;        ///< ring-neighbour exchange per iteration
  Transport transport = Transport::Tcp;
};

struct MpiRunResult {
  bool feasible = false;
  std::string failure;             ///< set when !feasible
  int total_ranks = 0;
  double wall_seconds = 0.0;
  double compute_seconds = 0.0;
  double communication_seconds = 0.0;  ///< wall − compute
  std::uint64_t wan_messages = 0;      ///< messages that crossed sites
  [[nodiscard]] double communication_fraction() const {
    return wall_seconds > 0.0 ? communication_seconds / wall_seconds : 0.0;
  }
};

/// Place the ranks as hosts on `network` and simulate the job. The
/// network must already have links between every pair of involved sites.
[[nodiscard]] MpiRunResult run_mpi_job(Network& network, const MpiJobConfig& config);

}  // namespace spice::net
