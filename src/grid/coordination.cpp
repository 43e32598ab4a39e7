#include "grid/coordination.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"

namespace spice::grid {

namespace {
// Manual workflow.
constexpr double kEmailsPerSetup = 4.0;       ///< baseline exchanges per site
constexpr double kEmailRttHours = 6.0;        ///< mean admin response time (business-day scale)
constexpr double kErrorProbability = 0.55;    ///< an admin action introduces an error
constexpr double kEmailsPerCorrection = 3.0;  ///< extra exchanges per error round
constexpr int kMaxCorrectionRounds = 6;       ///< before the attempt is abandoned
// Automated workflow.
constexpr double kSetupMinutes = 10.0;        ///< per site via the web interface
constexpr double kFailureProbability = 0.02;  ///< request bounced; retried once
// Both workflows.
constexpr double kDeadlineHours = 72.0;       ///< window before the booked slot
}  // namespace

CoordinationOutcome simulate_manual_coordination(int n_sites, std::uint64_t seed) {
  SPICE_REQUIRE(n_sites >= 1, "coordination needs at least one site");
  Rng rng = Rng::stream(seed, 0x6d616e75 /*"manu"*/);
  CoordinationOutcome out;
  double slowest_site = 0.0;

  for (int site = 0; site < n_sites; ++site) {
    double elapsed = 0.0;
    // Baseline setup exchange.
    const int base_emails = std::max(1, static_cast<int>(
        std::lround(rng.gaussian(kEmailsPerSetup, 1.0))));
    for (int e = 0; e < base_emails; ++e) elapsed += rng.exponential(kEmailRttHours);
    out.emails += base_emails;

    // Error/correction rounds: each admin action may introduce an error;
    // each error needs another exchange which may itself err again.
    int rounds = 0;
    while (rng.bernoulli(kErrorProbability)) {
      ++rounds;
      ++out.errors;
      if (rounds > kMaxCorrectionRounds) {
        // The attempt is abandoned (the slot passes unconfirmed).
        out.elapsed_hours = kDeadlineHours;
        out.success = false;
        return out;
      }
      const int fix_emails = std::max(1, static_cast<int>(
          std::lround(rng.gaussian(kEmailsPerCorrection, 1.0))));
      for (int e = 0; e < fix_emails; ++e) elapsed += rng.exponential(kEmailRttHours);
      out.emails += fix_emails;
    }
    // Sites are coordinated in parallel (separate admins); the session is
    // ready when the slowest site confirms.
    slowest_site = std::max(slowest_site, elapsed);
  }
  out.elapsed_hours = slowest_site;
  out.success = slowest_site <= kDeadlineHours;
  return out;
}

CoordinationOutcome simulate_automated_coordination(int n_sites, std::uint64_t seed) {
  SPICE_REQUIRE(n_sites >= 1, "coordination needs at least one site");
  Rng rng = Rng::stream(seed, 0x6175746f /*"auto"*/);
  CoordinationOutcome out;
  double slowest_site = 0.0;
  for (int site = 0; site < n_sites; ++site) {
    double elapsed = rng.exponential(kSetupMinutes / 60.0);
    if (rng.bernoulli(kFailureProbability)) {
      // One retry; a second bounce fails the whole session.
      elapsed += rng.exponential(kSetupMinutes / 60.0);
      if (rng.bernoulli(kFailureProbability)) {
        out.elapsed_hours = elapsed;
        out.success = false;
        return out;
      }
    }
    slowest_site = std::max(slowest_site, elapsed);
  }
  out.elapsed_hours = slowest_site;
  out.success = slowest_site <= kDeadlineHours;
  return out;
}

namespace {
template <typename Simulate>
CoordinationSummary summarize(int n_sites, std::size_t trials, std::uint64_t seed,
                              Simulate&& simulate) {
  SPICE_REQUIRE(trials > 0, "need at least one trial");
  CoordinationSummary summary;
  summary.n_sites = n_sites;
  RunningStats elapsed;
  RunningStats emails;
  RunningStats errors;
  std::size_t successes = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const CoordinationOutcome o = simulate(seed + t);
    if (o.success) {
      ++successes;
      elapsed.add(o.elapsed_hours);
    }
    emails.add(o.emails);
    errors.add(o.errors);
  }
  summary.success_rate = static_cast<double>(successes) / static_cast<double>(trials);
  summary.mean_elapsed_hours = elapsed.mean();
  summary.mean_emails = emails.mean();
  summary.mean_errors = errors.mean();
  return summary;
}
}  // namespace

CoordinationSummary summarize_manual(int n_sites, std::size_t trials, std::uint64_t seed) {
  return summarize(n_sites, trials, seed,
                   [&](std::uint64_t s) { return simulate_manual_coordination(n_sites, s); });
}

CoordinationSummary summarize_automated(int n_sites, std::size_t trials, std::uint64_t seed) {
  return summarize(n_sites, trials, seed,
                   [&](std::uint64_t s) { return simulate_automated_coordination(n_sites, s); });
}

}  // namespace spice::grid
