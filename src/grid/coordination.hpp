#pragma once
// Stochastic model of the reservation *process* — §V-C.3 of the paper:
//
//   "with advanced reservations made by hand, schedulers did not work
//    always and required last minute corrections and tweaking. The current
//    mode of operation is cumbersome, highly prone to error (one of the
//    authors had to exchange about a dozen emails correcting three
//    distinct errors introduced by two different administrators for one
//    reservation request), and is not a scalable solution."
//
// and §V-C.6: "the probability of success is likely to decrease
// exponentially with every additional independent grid."
//
// Two workflows are modelled per coordinated session:
//   Manual:    per site, a chain of admin email exchanges; each admin
//              action may introduce an error, detected only after a delay
//              and fixed by a correction round.
//   Automated: a HARC/web-interface-like service (the TeraGrid web
//              interface the paper says was developed "partly due to the
//              needs of the three projects"): near-instant per-site setup
//              with a small failure probability.
//
// Calibration anchors to the paper's anecdote: a dozen emails and three
// errors for one manual reservation.

#include <cstdint>
#include <vector>

namespace spice::grid {

struct CoordinationOutcome {
  bool success = false;
  double elapsed_hours = 0.0;
  int emails = 0;   ///< human messages exchanged (0 for automated)
  int errors = 0;   ///< admin-introduced errors encountered
};

/// Simulate coordinating ONE session across `n_sites` sites manually.
/// All sites must be confirmed before the deadline.
[[nodiscard]] CoordinationOutcome simulate_manual_coordination(int n_sites, std::uint64_t seed);

/// Simulate the automated workflow across `n_sites` sites.
[[nodiscard]] CoordinationOutcome simulate_automated_coordination(int n_sites,
                                                                  std::uint64_t seed);

struct CoordinationSummary {
  int n_sites = 0;
  double success_rate = 0.0;
  double mean_elapsed_hours = 0.0;  ///< over successful attempts
  double mean_emails = 0.0;
  double mean_errors = 0.0;
};

/// Monte-Carlo summary over `trials` independent attempts.
[[nodiscard]] CoordinationSummary summarize_manual(int n_sites, std::size_t trials,
                                                   std::uint64_t seed);
[[nodiscard]] CoordinationSummary summarize_automated(int n_sites, std::size_t trials,
                                                      std::uint64_t seed);

}  // namespace spice::grid
