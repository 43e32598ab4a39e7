#pragma once
// Deterministic fault injection for the federated grid — the §V operational
// reality SPICE's campaign layer had to survive: sites failing mid-job and
// scheduled outages (the §V-C.4 security breach), all driven through the
// shared DES event queue so every injected fault replays bit-identically for
// a given seed.
//
// Scheduled outages are listed explicitly; random mid-job site failures are
// drawn per site from an exponential failure/repair process seeded by
// (config.seed, site index), so the schedule never depends on campaign
// content or dispatch order.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "grid/federation.hpp"

namespace spice::grid {

struct ScheduledOutage {
  std::string site;
  double start_hours = 0.0;
  double duration_hours = 0.0;
};

struct FaultConfig {
  std::uint64_t seed = 2005;
  std::vector<ScheduledOutage> scheduled;
  /// Mean time between random site failures (per site, hours); 0 disables
  /// the random failure process.
  double site_mtbf_hours = 0.0;
  double mean_outage_hours = 4.0;   ///< exponential outage duration
  double horizon_hours = 500.0;     ///< random failures drawn in [0, horizon)
  /// Draw the random failure process lazily: instead of materializing
  /// every outage up front (O(sites × horizon/MTBF) armed events), each
  /// site carries ONE self-rescheduling event that draws the next
  /// failure when the previous one fires. The per-site draw order is
  /// identical to eager arming, so the outage schedule is bit-identical;
  /// outages() stays empty in this mode, and the injector must outlive
  /// the event queue's run.
  bool lazy_arming = false;

  /// grid/mc seam (not owned, may be null): with an oracle installed the
  /// random failure/repair process stops drawing from the seeded
  /// exponential streams and instead branches over `oracle_draw_levels`
  /// quantiles of each draw (gap to next failure, outage duration), so a
  /// bounded scenario's whole fault-schedule space is enumerable. Must
  /// outlive arm() (and, under lazy_arming, the queue's run).
  ChoiceOracle* oracle = nullptr;
  /// Quantile count enumerated per exponential draw under an oracle (≥ 1).
  int oracle_draw_levels = 2;

  [[nodiscard]] bool enabled() const {
    return site_mtbf_hours > 0.0 || !scheduled.empty();
  }
};

/// Arms a fault schedule against a federation's event queue. The full
/// outage schedule (scheduled + randomly drawn) is materialized up front
/// and exposed for inspection, then injected as DES events.
class FaultInjector {
 public:
  FaultInjector(Federation& federation, FaultConfig config);

  /// Materialize the schedule and inject every fault as a DES event.
  /// Returns the number of outages armed. Call at most once.
  std::size_t arm();

  /// The materialized outage schedule (valid after arm(); random outages
  /// are absent under lazy_arming — they exist only as future events).
  [[nodiscard]] const std::vector<ScheduledOutage>& outages() const { return outages_; }

 private:
  /// Lazy mode: inject site i's next random outage and reschedule.
  void fire_random(std::size_t site_index);
  /// One exponential draw: the site stream's sample, or an oracle-chosen
  /// quantile of the same distribution when a grid/mc oracle is set.
  [[nodiscard]] double draw_exponential(Rng& rng, double mean, const char* tag) const;

  Federation& federation_;
  FaultConfig config_;
  std::vector<ScheduledOutage> outages_;
  std::vector<Rng> site_rngs_;  ///< lazy-mode per-site draw streams
  bool armed_ = false;
};

}  // namespace spice::grid
