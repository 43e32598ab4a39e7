#include "net/mpi.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace spice::net {

namespace {
constexpr double kAllreduceBytes = 1e3;  ///< payload of each reduction message
}  // namespace

MpiRunResult run_mpi_job(Network& network, const MpiJobConfig& config) {
  SPICE_REQUIRE(!config.placement.empty(), "MPI job needs a placement");
  SPICE_REQUIRE(config.iterations > 0, "MPI job needs iterations");

  MpiRunResult result;

  // Materialize ranks as hosts, in placement order (rank ids are global).
  std::vector<HostId> ranks;
  for (const auto& site : config.placement) {
    SPICE_REQUIRE(site.ranks > 0, "site placement needs ranks");
    for (int r = 0; r < site.ranks; ++r) {
      ranks.push_back(network.add_host(site.site, site.hidden_ip));
    }
  }
  result.total_ranks = static_cast<int>(ranks.size());
  SPICE_REQUIRE(ranks.size() >= 2, "MPI job needs at least two ranks");

  // Feasibility: every ring neighbour pair and every tree edge must be
  // routable. (classify_path is static, so check up front — the paper's
  // experience: the job simply cannot start.)
  auto routable = [&](HostId a, HostId b) {
    const PathKind path = network.classify_path(a, b);
    if (path == PathKind::Unreachable) return false;
    if (path == PathKind::ViaGateway && config.transport == Transport::Udp) return false;
    return true;
  };
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const std::size_t next = (r + 1) % ranks.size();
    if (!routable(ranks[r], ranks[next]) || !routable(ranks[next], ranks[r])) {
      result.failure = "rank " + std::to_string(r) + " cannot reach rank " +
                       std::to_string(next) +
                       " (hidden IP without a gateway, or UDP through a gateway)";
      return result;
    }
  }

  // Simulate iterations on a virtual wall clock. Ranks are synchronous
  // (bulk-synchronous stencil): iteration time = compute + slowest halo
  // + allreduce tree depth.
  double wall = 0.0;
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    wall += config.compute_seconds_per_iteration;

    // Halo exchange with both ring neighbours, all at once.
    double halo_done = wall;
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      const std::size_t next = (r + 1) % ranks.size();
      const auto out = network.send(wall, ranks[r], ranks[next], config.halo_bytes,
                                    config.transport);
      SPICE_ENSURE(out.delivered, "routable pair failed to deliver");
      halo_done = std::max(halo_done, out.deliver_at);
      if (network.host(ranks[r]).site != network.host(ranks[next]).site) {
        ++result.wan_messages;
      }
    }
    wall = halo_done;

    // Allreduce: binomial tree, log2(P) levels of pairwise exchanges.
    const auto levels = static_cast<std::size_t>(
        std::ceil(std::log2(static_cast<double>(ranks.size()))));
    for (std::size_t level = 0; level < levels; ++level) {
      const std::size_t stride = 1ULL << level;
      double level_done = wall;
      for (std::size_t r = 0; r + stride < ranks.size(); r += 2 * stride) {
        const auto out = network.send(wall, ranks[r + stride], ranks[r],
                                      kAllreduceBytes, config.transport);
        SPICE_ENSURE(out.delivered, "routable pair failed to deliver");
        level_done = std::max(level_done, out.deliver_at);
        if (network.host(ranks[r]).site != network.host(ranks[r + stride]).site) {
          ++result.wan_messages;
        }
      }
      wall = level_done;
    }
  }

  result.feasible = true;
  result.wall_seconds = wall;
  result.compute_seconds =
      static_cast<double>(config.iterations) * config.compute_seconds_per_iteration;
  result.communication_seconds = result.wall_seconds - result.compute_seconds;
  return result;
}

}  // namespace spice::net
