// E7 — §II-III interactive MD vs network QoS:
//
//   "Unreliable communication leads not only to a possible loss of
//    interactivity, but equally seriously, a significant slowdown of the
//    simulation as it stalls waiting for data from the visualization ...
//    a general purpose network is not acceptable."
//
// The 300k-atom simulation on 256 processors streams 3.6 MB frames to a
// trans-Atlantic visualizer. Sweep: network preset x flow-control window;
// report achieved efficiency, stall fraction and frame RTT.

#include <cstdio>
#include <iostream>
#include <vector>

#include "claims.hpp"
#include "net/network.hpp"
#include "net/qos.hpp"
#include "spice/cost_model.hpp"
#include "steering/imd.hpp"
#include "viz/series_writer.hpp"

using namespace spice;
using namespace spice::claims;

namespace {

steering::ImdMetrics run_session(const net::QosSpec& qos, std::size_t window,
                                 std::size_t steps_per_frame) {
  net::Network network(7);
  network.connect_sites("NCSA", "UCL", qos);
  const auto sim = network.add_host("NCSA");
  const auto viz = network.add_host("UCL");

  const core::MdCostModel cost;
  steering::ImdConfig config;
  config.total_steps = 3000;
  config.steps_per_frame = steps_per_frame;
  config.window = window;
  config.seconds_per_step = core::seconds_per_step(cost, 256);
  config.frame_bytes = core::frame_bytes(cost);
  config.render_seconds = 0.02;
  steering::ImdSession session(network, sim, viz, config);
  return session.run();
}

}  // namespace

void spice::claims::imd_qos(Claim& claim) {
  std::printf("\nsimulation: 300k atoms on 256 procs (%.3f s/step), 3.6 MB frames\n",
              core::seconds_per_step(core::MdCostModel{}, 256));

  const std::vector<net::QosSpec> presets = {
      net::local_area(), net::lightpath_transatlantic(),
      net::production_internet_transatlantic(), net::congested_internet()};

  std::printf("\n--- QoS presets ---\n");
  viz::Table qos_table({"preset", "latency_ms", "jitter_ms", "loss_pct", "bandwidth_mbps"});
  for (std::size_t i = 0; i < presets.size(); ++i) {
    qos_table.add_row({static_cast<double>(i), presets[i].latency_ms, presets[i].jitter_ms,
                       presets[i].loss_rate * 100.0, presets[i].bandwidth_mbps});
  }
  qos_table.write_pretty(std::cout, 3);
  for (std::size_t i = 0; i < presets.size(); ++i) {
    std::printf("  preset %zu = %s\n", i, presets[i].name.c_str());
  }

  std::printf("\n--- Session results (frame every 10 steps, window 4) ---\n");
  viz::Table results({"preset", "efficiency", "stall_fraction", "mean_rtt_s",
                      "frames_delivered", "losses"});
  double lightpath_eff = 0.0;
  double internet_eff = 1.0;
  double congested_eff = 1.0;
  for (std::size_t i = 0; i < presets.size(); ++i) {
    const auto metrics = run_session(presets[i], 4, 10);
    results.add_row({static_cast<double>(i), metrics.efficiency(), metrics.stall_fraction(),
                     metrics.mean_frame_rtt, static_cast<double>(metrics.frames_delivered),
                     static_cast<double>(metrics.frames_sent - metrics.frames_delivered)});
    if (presets[i].name == "lightpath-transatlantic") lightpath_eff = metrics.efficiency();
    if (presets[i].name == "internet-transatlantic") internet_eff = metrics.efficiency();
    if (presets[i].name == "internet-congested") congested_eff = metrics.efficiency();
  }
  results.write_pretty(std::cout, 3);

  std::printf("\n--- Window sweep on the congested path (flow-control sensitivity) ---\n");
  viz::Table windows({"window", "efficiency", "stall_fraction"});
  for (const std::size_t w : {1, 2, 4, 8, 16}) {
    const auto metrics = run_session(net::congested_internet(), w, 10);
    windows.add_row({static_cast<double>(w), metrics.efficiency(), metrics.stall_fraction()});
  }
  windows.write_pretty(std::cout, 3);

  std::printf("\n--- Frame-rate sweep on the lightpath (interactivity headroom) ---\n");
  viz::Table rates({"steps_per_frame", "frames_per_s", "efficiency"});
  for (const std::size_t spf : {2, 5, 10, 20}) {
    const auto metrics = run_session(net::lightpath_transatlantic(), 4, spf);
    const double fps = 1.0 / (spf * core::seconds_per_step(core::MdCostModel{}, 256));
    rates.add_row({static_cast<double>(spf), fps, metrics.efficiency()});
  }
  rates.write_pretty(std::cout, 3);

  claim.check(lightpath_eff > 0.9,
              fmt("lightpath keeps the 256-proc simulation near full speed "
                  "(efficiency %.2f > 0.9)",
                  lightpath_eff));
  claim.check(congested_eff < 0.6,
              fmt("the congested general-purpose internet stalls the simulation "
                  "(efficiency %.2f < 0.6)",
                  congested_eff));
  claim.check(lightpath_eff > internet_eff && lightpath_eff > congested_eff,
              "lightpath strictly better than both internet paths");
}
