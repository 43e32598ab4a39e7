// grid/mc: the depth-first interleaving explorer over the broker/DES.
//
// These tests make three kinds of claim: (1) the explorer's enumeration is
// exhaustive and deterministic on scenarios whose schedule space is known
// by hand (3! permutations of a toy tie, exactly 2 traces for the
// recovery-vs-backoff race); (2) the standard broker invariants hold at
// EVERY reachable state of the bounded scenarios — the exhaustive
// replacement for the hand-written ordering tests this PR removed from
// test_grid.cpp; (3) the mutation-sensitivity demo: a re-introduced
// pre-PR-2 stale-finish bug is found by exploration but survives a
// 100-seed sweep, because tie order is seq-determined and no seed varies
// it.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "grid/des.hpp"
#include "grid/mc/explorer.hpp"
#include "grid/mc/invariants.hpp"
#include "grid/mc/scenarios.hpp"

namespace {

using namespace spice::grid;
using namespace spice::grid::mc;

McConfig no_pruning() {
  McConfig config;
  config.prune_visited = false;
  return config;
}

std::vector<CheckerFactory> with_recoveries(std::map<std::string, int> expected) {
  auto checkers = default_checkers();
  checkers.push_back(recovery_count_checker(std::move(expected)));
  return checkers;
}

bool any_checker(const ExploreResult& result, const std::string& name) {
  return std::any_of(result.violations.begin(), result.violations.end(),
                     [&](const Violation& v) { return v.checker == name; });
}

// --- Enumeration mechanics ---------------------------------------------------

TEST(Explorer, EnumeratesAllPermutationsOfAToyTieGroup) {
  // Three same-timestamp events and a recorder event afterwards: with
  // pruning off the explorer must visit all 3! firing orders, each
  // exactly once.
  auto orders = std::make_shared<std::set<std::string>>();
  Scenario toy;
  toy.name = "toy-3-tie";
  toy.build = [orders](ChoiceOracle*, std::uint64_t) {
    auto world = std::make_unique<ScenarioWorld>();
    auto current = std::make_shared<std::string>();
    for (const char* label : {"a", "b", "c"}) {
      world->events.at(1.0, [current, label] { *current += label; });
    }
    world->events.at(2.0, [orders, current] { orders->insert(*current); });
    return world;
  };

  const ExploreResult result = explore(toy, no_pruning(), {});
  EXPECT_TRUE(result.stats.exhausted);
  EXPECT_EQ(result.stats.traces, 6u);
  EXPECT_EQ(result.completed_traces, 6u);
  EXPECT_EQ(result.stats.max_tie_group, 3u);
  EXPECT_EQ(orders->size(), 6u);
  const std::set<std::string> expected = {"abc", "acb", "bac", "bca", "cab", "cba"};
  EXPECT_EQ(*orders, expected);
}

TEST(Explorer, EventQueueFingerprintIgnoresScheduleOrderAndCancelledEvents) {
  EventQueue a;
  a.at(1.0, [] {});
  a.at(2.0, [] {});

  EventQueue b;  // same live times, different insertion order + a cancel
  b.at(2.0, [] {});
  const EventToken dead = b.at(5.0, [] {});
  b.at(1.0, [] {});
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  ASSERT_TRUE(b.cancel(dead));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  EventQueue c;
  c.at(1.0, [] {});
  c.at(3.0, [] {});
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(Explorer, WorldFingerprintIsStableAcrossRebuilds) {
  const Scenario scenario = recovery_backoff_tie_scenario();
  const auto w1 = scenario.build(nullptr, 7);
  const auto w2 = scenario.build(nullptr, 7);
  EXPECT_EQ(world_fingerprint(*w1), world_fingerprint(*w2));
  w2->events.step();
  EXPECT_NE(world_fingerprint(*w1), world_fingerprint(*w2));
}

// --- Exhaustive broker scenarios ---------------------------------------------

TEST(Explorer, RecoveryVersusBackoffRaceExhaustive) {
  // The PR 6 race, formerly pinned by two hand-written ordering tests:
  // the held job's backoff timer lands exactly on the site's recovery
  // event. Both orders must complete the campaign at the same makespan,
  // with every invariant green and exactly one recovery fired.
  const ExploreResult result = explore(recovery_backoff_tie_scenario(), no_pruning(),
                                       with_recoveries({{"S", 1}}));
  EXPECT_TRUE(result.ok()) << result.violations.front().checker << ": "
                           << result.violations.front().message;
  EXPECT_TRUE(result.stats.exhausted);
  EXPECT_EQ(result.stats.traces, 2u);
  EXPECT_EQ(result.completed_traces, 2u);
  EXPECT_EQ(result.stats.max_tie_group, 2u);
  EXPECT_NEAR(result.min_makespan_hours, 12.0, 1e-9);
  EXPECT_NEAR(result.max_makespan_hours, 12.0, 1e-9);
}

TEST(Explorer, PruningCollapsesConvergentSiblingsWithoutChangingTheVerdict) {
  // After either order of the t=4 tie the world is identical, so the
  // second trace must hash-prune right at its divergence point — half the
  // tree for free — while the verdict matches the unpruned proof.
  McConfig config;  // prune_visited = true
  const ExploreResult pruned = explore(recovery_backoff_tie_scenario(), config,
                                       with_recoveries({{"S", 1}}));
  EXPECT_TRUE(pruned.ok());
  EXPECT_TRUE(pruned.stats.exhausted);
  EXPECT_EQ(pruned.stats.traces, 2u);
  EXPECT_EQ(pruned.stats.pruned_traces, 1u);
  EXPECT_EQ(pruned.completed_traces, 1u);
  EXPECT_GT(pruned.stats.distinct_states, 0u);
}

TEST(Explorer, OverlappingOutagesThroughTheHeldQueueExhaustive) {
  // Two overlapping outages on A merging into one window, B down across
  // the gap: every job cycles through the held queue, same-attempt hold
  // timers tie pairwise, and each merged window fires exactly one
  // recovery. This subsumes the removed overlapping-outage Site tests —
  // over every interleaving instead of the two seq orders.
  const ExploreResult result = explore(overlapping_outage_scenario(), no_pruning(),
                                       with_recoveries({{"A", 1}, {"B", 1}}));
  EXPECT_TRUE(result.ok()) << result.violations.front().checker << ": "
                           << result.violations.front().message;
  EXPECT_TRUE(result.stats.exhausted);
  EXPECT_GE(result.stats.traces, 8u);
  EXPECT_EQ(result.completed_traces, result.stats.traces);
  // Job 2's finish event ties with B's outage start at t=2: when the
  // finish wins the tie, job 2 escapes the kill and the survivors drain
  // on B at 8–12; when the outage wins, all three drain at 8–14. The
  // explorer surfaces both outcomes as the makespan range.
  EXPECT_NEAR(result.min_makespan_hours, 12.0, 1e-9);
  EXPECT_NEAR(result.max_makespan_hours, 14.0, 1e-9);
}

TEST(Explorer, RoundRobinCampaignWithJitterChoicesExhaustive) {
  // 6 jobs × 2 sites under RoundRobin: the start offset and each killed
  // job's 2-level backoff jitter are enumerated choices; equal-jitter
  // retries tie and permute.
  const ExploreResult result =
      explore(round_robin_outage_scenario(6), no_pruning(), default_checkers());
  EXPECT_TRUE(result.ok()) << result.violations.front().checker << ": "
                           << result.violations.front().message;
  EXPECT_TRUE(result.stats.exhausted);
  EXPECT_GE(result.stats.traces, 16u);
  EXPECT_EQ(result.completed_traces, result.stats.traces);
  EXPECT_GT(result.stats.choice_points, result.stats.traces);

  // Same verdict with pruning on.
  const ExploreResult pruned = explore(round_robin_outage_scenario(6), McConfig{});
  EXPECT_TRUE(pruned.ok());
  EXPECT_TRUE(pruned.stats.exhausted);
}

TEST(Explorer, FaultDrawQuantilesBecomeSiblingTraces) {
  // The random failure process routed through the oracle: one branch
  // pushes the first failure past the horizon (uninterrupted 12 h run),
  // the others interrupt the checkpointing job at the 25%-quantile gap.
  const ExploreResult result =
      explore(fault_draw_scenario(), no_pruning(), default_checkers());
  EXPECT_TRUE(result.ok()) << result.violations.front().checker << ": "
                           << result.violations.front().message;
  EXPECT_TRUE(result.stats.exhausted);
  EXPECT_GT(result.stats.traces, 2u);
  EXPECT_EQ(result.completed_traces, result.stats.traces);
  EXPECT_NEAR(result.min_makespan_hours, 12.0, 1e-9);
  EXPECT_GT(result.max_makespan_hours, 12.5);
}

TEST(Explorer, MakespanMonotoneInFaultSeverityAcrossSiblingTraces) {
  const double severities[] = {0.0, 2.0, 6.0};
  double prev_min = 0.0;
  double prev_max = 0.0;
  for (const double hours : severities) {
    const ExploreResult result =
        explore(outage_severity_scenario(hours), no_pruning(), default_checkers());
    ASSERT_TRUE(result.ok()) << "severity " << hours;
    ASSERT_TRUE(result.stats.exhausted);
    ASSERT_GT(result.completed_traces, 0u);
    EXPECT_GE(result.min_makespan_hours + 1e-9, prev_min);
    EXPECT_GE(result.max_makespan_hours + 1e-9, prev_max);
    prev_min = result.min_makespan_hours;
    prev_max = result.max_makespan_hours;
  }
  EXPECT_GT(prev_min, 12.0);  // the 6 h outage really delayed the campaign
}

TEST(Explorer, BackfillScanAndOutageFlushTieExhaustive) {
  // A backfilled job's finish and the site's outage share t=2: both orders
  // run the indexed backfill scan and the fail_until queue flush, and the
  // killed checkpointing jobs restart. Every invariant must hold at every
  // state, with one recovery for the one outage. When the outage fires
  // first, job 3's checkpoints have banked all of its work: it completes
  // rather than re-running for zero hours, which run-token-monotone flags.
  const ExploreResult result = explore(backfill_outage_tie_scenario(), no_pruning(),
                                       with_recoveries({{"S", 1}}));
  EXPECT_TRUE(result.ok()) << result.violations.front().checker << ": "
                           << result.violations.front().message;
  EXPECT_TRUE(result.stats.exhausted);
  EXPECT_GE(result.stats.traces, 2u);
  EXPECT_EQ(result.completed_traces, result.stats.traces);
  EXPECT_GE(result.stats.max_tie_group, 2u);
}

// --- Mutation sensitivity ----------------------------------------------------

TEST(Explorer, StaleFinishMutationFoundByExploration) {
  // Clean scenario: the outage cancels the killed attempt's finish event,
  // there is no tie at t=10 and nothing to find.
  const ExploreResult clean =
      explore(stale_finish_scenario(false), no_pruning(), default_checkers());
  EXPECT_TRUE(clean.ok());
  EXPECT_TRUE(clean.stats.exhausted);

  // Mutated scenario: the stale finish event survives, tied with the
  // re-dispatch at t=10. The permuted order completes the fresh attempt
  // at zero wall-clock — caught by the token and CPU invariants.
  const ExploreResult mutated =
      explore(stale_finish_scenario(true), no_pruning(), default_checkers());
  ASSERT_FALSE(mutated.ok());
  EXPECT_TRUE(mutated.stats.exhausted);  // the whole (2-trace) tree was walked
  EXPECT_TRUE(any_checker(mutated, "run-token-monotone"));
  EXPECT_TRUE(any_checker(mutated, "cpu-conservation"));

  // The recorded choice stack pins the schedule: its deepest choice is
  // the t=10 tie permutation, and replaying it reproduces the violation.
  const Violation& v = mutated.violations.front();
  ASSERT_FALSE(v.choices.empty());
  EXPECT_STREQ(v.choices.back().tag, "des.tie");
  EXPECT_EQ(v.choices.back().chosen, 1u);
  const TraceOutcome again = replay(stale_finish_scenario(true), v.choices);
  EXPECT_FALSE(again.ok());

  // Pruning must never swallow the violation: checkers run before the
  // visited-state cut.
  const ExploreResult pruned = explore(stale_finish_scenario(true), McConfig{});
  EXPECT_FALSE(pruned.ok());
}

TEST(Explorer, StaleFinishMutationSurvivesAHundredSeedSweep) {
  // The seeded sweep the explorer is benchmarked against: 100 seeds vary
  // the background noise on the infeasible site, but the t=10 tie always
  // fires in seq order (stale finish first, masked by the state guard), so
  // every seed reports green. This is exactly the class of bug that seed
  // sweeps cannot reach and exhaustive interleaving search can.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const TraceOutcome outcome = run_seeded(stale_finish_scenario(true), seed);
    ASSERT_TRUE(outcome.ok()) << "seed " << seed << " unexpectedly found the mutation: "
                              << outcome.violations.front().message;
    ASSERT_TRUE(outcome.done) << "seed " << seed;
  }
}

TEST(Explorer, ReplayWithAnExplicitChoiceStackIsDeterministic) {
  const std::vector<Choice> permuted = {{"des.tie", 2, 1}};
  const TraceOutcome a = replay(recovery_backoff_tie_scenario(), permuted);
  const TraceOutcome b = replay(recovery_backoff_tie_scenario(), permuted);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(a.done);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_NEAR(a.makespan_hours, 12.0, 1e-9);
  EXPECT_DOUBLE_EQ(a.makespan_hours, b.makespan_hours);
}

}  // namespace
