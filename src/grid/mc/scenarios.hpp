#pragma once
// Bounded broker scenarios for the grid/mc explorer.
//
// A Scenario is a factory: each explored trace rebuilds the world from
// scratch (EventQueue, Federation, Sites, Broker, FaultInjector are
// non-copyable, so grid/mc replays from the root instead of checkpointing
// mid-run state). The builder receives the explorer's ChoiceOracle — or
// nullptr for a plain seeded run — plus a seed that perturbs whatever
// seeded randomness the scenario carries (background load, jitter
// streams), so the same factory serves both exhaustive exploration and
// the 100-seed sweeps it is benchmarked against.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "grid/des.hpp"
#include "grid/faults.hpp"
#include "grid/federation.hpp"

namespace spice::grid::mc {

/// Everything one explored trace owns. Declaration order gives safe
/// teardown: the broker (which deregisters its federation listeners) dies
/// before the federation, which dies before the queue.
struct ScenarioWorld {
  EventQueue events;
  Federation federation{events};
  std::unique_ptr<FaultInjector> faults;  ///< optional
  std::unique_ptr<Broker> broker;         ///< optional (toy DES-only scenarios)
  std::size_t requested = 0;              ///< campaign size, for the checkers
};

/// Builder contract: construct the world and submit the campaign, but do
/// NOT run the queue — the explorer steps it. `oracle` may be null
/// (seeded run); `seed` varies only seeded randomness, never the choice
/// structure.
using ScenarioBuilder =
    std::function<std::unique_ptr<ScenarioWorld>(ChoiceOracle* oracle, std::uint64_t seed)>;

struct Scenario {
  std::string name;
  ScenarioBuilder build;
};

// ---- Preset scenarios (tests/test_grid_mc.cpp, bench/mc_explore) ----

/// One job, one site: an outage-killed attempt whose held-retry backoff
/// timer lands exactly on the site's recovery event. The canonical PR 6
/// "recovery callback vs backoff timer, race loser is cancelled" tie —
/// exactly 2 interleavings.
Scenario recovery_backoff_tie_scenario();

/// n_jobs × 2 sites under RoundRobin with an enumerated start offset, a
/// scheduled outage on one site, and 2-level enumerable backoff jitter:
/// the "6–10-job × 2-site" coverage scenario.
Scenario round_robin_outage_scenario(std::size_t n_jobs = 6);

/// 3 jobs × 2 sites where overlapping outages (two on site A merging into
/// one window, one on B covering the gap) force every job through the
/// held queue repeatedly; ties between same-attempt backoff timers. The
/// exhaustive replacement for the hand-written overlapping-outage tests.
Scenario overlapping_outage_scenario();

/// One site, one long job, random failure process routed through the
/// oracle: every (gap, duration) quantile combination of the fault
/// injector becomes a sibling trace.
Scenario fault_draw_scenario();

/// Single site, 2 checkpointing jobs, a scheduled outage of the given
/// duration (0 = none): explored makespans must be monotone in severity.
Scenario outage_severity_scenario(double outage_hours);

/// One 128-processor site under EASY backfill: a 64-processor job runs,
/// the full-width head waits for it, and three of the four jobs behind
/// the head backfill around it. One backfilled job finishes at t=2, the
/// instant a scheduled outage starts, so the explorer runs the site's
/// indexed backfill scan and its fail_until queue flush in both orders;
/// the killed checkpointing jobs restart with banked work.
Scenario backfill_outage_tie_scenario();

/// The mutation-sensitivity demo: one site + one infeasible "noise" site
/// carrying seed-varied background load, one 10 h job killed by a short
/// outage whose re-dispatch lands exactly on the killed attempt's stale
/// finish timestamp. With `inject_bug` the pre-PR-2 stale-finish defect
/// is re-enabled on the main site: seq-order (FIFO) runs mask it for
/// every seed, the permuted tie order completes the re-run at zero wall.
Scenario stale_finish_scenario(bool inject_bug);

}  // namespace spice::grid::mc
