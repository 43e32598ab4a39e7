// E9 — §V-C.3 / §V-C.6: the reservation-coordination process.
//
//   "with advanced reservations made by hand, schedulers did not work
//    always and required last minute corrections and tweaking ... one of
//    the authors had to exchange about a dozen emails correcting three
//    distinct errors ... is not a scalable solution"
//   "the probability of success is likely to decrease exponentially with
//    every additional independent grid."
//
// Monte-Carlo over the manual email workflow vs a HARC-like automated
// service, as a function of the number of independently administered
// sites/grids that must be coordinated.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "claims.hpp"
#include "grid/coordination.hpp"
#include "viz/series_writer.hpp"

using namespace spice;
using namespace spice::claims;
using namespace spice::grid;

void spice::claims::coscheduling(Claim& claim) {
  constexpr std::size_t kTrials = 2000;

  std::printf("\n--- The paper's anecdote, in-model ---\n");
  int heavy = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const auto o = simulate_manual_coordination(1, seed);
    if (o.emails >= 12 && o.errors >= 3) ++heavy;
  }
  std::printf("single-site manual setups needing >=12 emails and >=3 errors: "
              "%.1f%% of attempts (the paper's experience was not an outlier)\n",
              heavy / 10.0);

  std::printf("\n--- Success rate vs number of coordinated sites ---\n");
  viz::Table table({"sites", "manual_success", "manual_emails", "manual_errors",
                    "manual_hours", "auto_success", "auto_minutes"});
  double manual1 = 0.0;
  double manual4 = 0.0;
  double manual8 = 0.0;
  double auto8 = 0.0;
  for (int sites = 1; sites <= 8; ++sites) {
    const CoordinationSummary m = summarize_manual(sites, kTrials, 17);
    const CoordinationSummary a = summarize_automated(sites, kTrials, 17);
    table.add_row({static_cast<double>(sites), m.success_rate, m.mean_emails,
                   m.mean_errors, m.mean_elapsed_hours, a.success_rate,
                   a.mean_elapsed_hours * 60.0});
    if (sites == 1) manual1 = m.success_rate;
    if (sites == 4) manual4 = m.success_rate;
    if (sites == 8) {
      manual8 = m.success_rate;
      auto8 = a.success_rate;
    }
  }
  table.write_pretty(std::cout, 3);

  // Exponential-decay check: log(success) should fall roughly linearly.
  const double per_site = std::pow(manual4 / manual1, 1.0 / 3.0);
  std::printf("\nimplied per-additional-site success multiplier (manual): %.3f\n", per_site);

  claim.check(manual1 > manual4 && manual4 > manual8,
              fmt("manual success decays with site count (%.2f -> %.2f -> %.2f)", manual1,
                  manual4, manual8));
  claim.check(per_site < 0.999,
              fmt("decay is roughly multiplicative per site (multiplier %.2f < 1)", per_site));
  claim.check(auto8 > manual8 + 0.2,
              fmt("the automated (HARC/web-interface) workflow scales "
                  "(8-site success %.2f > manual %.2f)",
                  auto8, manual8));
}
