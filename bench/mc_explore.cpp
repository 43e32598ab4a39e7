// Exhaustive-interleaving model checking of the grid broker/DES (grid/mc):
// enumerate every same-timestamp permutation and nondeterministic choice
// of a set of bounded campaign scenarios, asserting the broker invariants
// at every reachable state — then demonstrate what that buys over seeded
// testing: a re-introduced stale-finish-event bug (the pre-PR-2 defect,
// behind Site::set_inject_stale_finish_bug) is found by exploration in
// milliseconds but survives a 100-seed sweep, because same-timestamp tie
// order is seq-determined and no seed ever varies it.

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "claims.hpp"
#include "grid/mc/explorer.hpp"
#include "grid/mc/invariants.hpp"
#include "grid/mc/scenarios.hpp"
#include "obs/metrics.hpp"

using namespace spice;
using namespace spice::claims;
using namespace spice::grid;
using namespace spice::grid::mc;

namespace {

struct Row {
  std::string name;
  ExploreResult result;
  double seconds = 0.0;
  bool pruning = false;
};

Row run(const Scenario& scenario, bool prune,
        const std::vector<CheckerFactory>& checkers = default_checkers()) {
  McConfig config;
  config.prune_visited = prune;
  const double t0 = obs::now_us();
  Row row{scenario.name, explore(scenario, config, checkers), 0.0, prune};
  row.seconds = (obs::now_us() - t0) * 1e-6;
  return row;
}

/// The default checkers plus the expected recovery count per site.
std::vector<CheckerFactory> with_recoveries(std::map<std::string, int> expected) {
  auto checkers = default_checkers();
  checkers.push_back(recovery_count_checker(std::move(expected)));
  return checkers;
}

void print_row(const Row& row) {
  const McStats& s = row.result.stats;
  std::printf("%-26s %5s %8" PRIu64 " %9" PRIu64 " %9" PRIu64 " %8" PRIu64 " %8" PRIu64
              " %6" PRIu64 " %5" PRIu64 " %6.3fs  %s\n",
              row.name.c_str(), row.pruning ? "on" : "off", s.traces, s.states,
              s.invariant_checks, s.choice_points, s.pruned_traces, s.max_tie_group,
              s.max_depth, row.seconds,
              !s.exhausted          ? "TRUNCATED"
              : row.result.ok()     ? "all green"
                                    : "VIOLATIONS");
}

/// Per-scenario counts under `scenario.<name>` (`.pruned` with pruning on).
void set_row(Claim& claim, const Row& row) {
  const McStats& s = row.result.stats;
  claim.set_group("scenario." + row.name + (row.pruning ? ".pruned" : ""),
                  {{"traces", s.traces}, {"states_explored", s.states},
                   {"distinct_states", s.distinct_states}, {"pruned_traces", s.pruned_traces},
                   {"choice_points", s.choice_points}, {"invariants_checked", s.invariant_checks},
                   {"max_tie_group", s.max_tie_group}, {"max_depth", s.max_depth},
                   {"exhausted", s.exhausted}, {"violations", row.result.violations.size()},
                   {"completed_traces", row.result.completed_traces},
                   {"min_makespan_hours", row.result.min_makespan_hours},
                   {"max_makespan_hours", row.result.max_makespan_hours},
                   {"seconds", row.seconds}});
}

}  // namespace

void spice::claims::mc_explore(Claim& claim) {
  std::printf("\n");
  std::printf("%-26s %5s %8s %9s %9s %8s %8s %6s %5s %7s  %s\n", "scenario", "prune",
              "traces", "states", "checks", "choices", "pruned", "tie", "depth", "time",
              "verdict");

  // --- Clean scenarios: every interleaving, every invariant -----------------
  std::vector<Row> rows;
  rows.push_back(run(recovery_backoff_tie_scenario(), false, with_recoveries({{"S", 1}})));
  rows.push_back(
      run(overlapping_outage_scenario(), false, with_recoveries({{"A", 1}, {"B", 1}})));
  rows.push_back(run(round_robin_outage_scenario(6), false));
  rows.push_back(run(round_robin_outage_scenario(10), false));
  rows.push_back(run(round_robin_outage_scenario(10), true));
  rows.push_back(run(fault_draw_scenario(), false));
  rows.push_back(run(backfill_outage_tie_scenario(), false, with_recoveries({{"S", 1}})));
  for (const Row& row : rows) print_row(row);

  bool clean_ok = true;
  double clean_seconds = 0.0;
  std::uint64_t total_states = 0;
  std::uint64_t total_checks = 0;
  for (const Row& row : rows) {
    clean_ok = clean_ok && row.result.ok() && row.result.stats.exhausted;
    clean_seconds += row.seconds;
    total_states += row.result.stats.states;
    total_checks += row.result.stats.invariant_checks;
  }
  const Row& unpruned10 = rows[3];
  const Row& pruned10 = rows[4];

  // --- Mutation sensitivity: exploration vs a 100-seed sweep ----------------
  std::printf("\n--- Mutation demo: pre-PR-2 stale-finish bug re-enabled ---\n");
  const Row mutated = run(stale_finish_scenario(true), false);
  print_row(mutated);
  const bool mutation_found = !mutated.result.ok() && mutated.result.stats.exhausted;
  std::string mutation_checkers;
  for (const Violation& v : mutated.result.violations) {
    if (!mutation_checkers.empty()) mutation_checkers += ", ";
    mutation_checkers += v.checker;
  }

  constexpr int kSweepSeeds = 100;
  int sweep_detections = 0;
  const double sweep_t0 = obs::now_us();
  for (int seed = 1; seed <= kSweepSeeds; ++seed) {
    const TraceOutcome outcome =
        run_seeded(stale_finish_scenario(true), static_cast<std::uint64_t>(seed));
    if (!outcome.ok()) ++sweep_detections;
  }
  const double sweep_seconds = (obs::now_us() - sweep_t0) * 1e-6;
  std::printf("explorer: %" PRIu64 " traces -> %zu violation(s) [%s]\n",
              mutated.result.stats.traces, mutated.result.violations.size(),
              mutation_checkers.c_str());
  std::printf("seed sweep: %d/%d seeds detect the bug (%.3fs)\n", sweep_detections,
              kSweepSeeds, sweep_seconds);

  // --- Claim checks ---------------------------------------------------------
  const bool coverage = rows.size() >= 3;
  const bool fast = clean_seconds + mutated.seconds < 30.0;
  const bool pruning_sound = pruned10.result.ok() == unpruned10.result.ok() &&
                             pruned10.result.stats.exhausted &&
                             pruned10.result.stats.states <= unpruned10.result.stats.states;
  const bool sweep_blind = sweep_detections == 0;

  for (const Row& row : rows) set_row(claim, row);
  set_row(claim, mutated);
  claim.set("mutation.checkers", mutation_checkers);
  claim.set_group("mutation", {{"sweep_seeds", kSweepSeeds},
                               {"sweep_detections", sweep_detections}});

  claim.check(clean_ok && coverage,
              fmt("%zu bounded scenarios exhaustively explored, all invariants green "
                  "(%" PRIu64 " states, %" PRIu64 " invariant checks)",
                  rows.size(), total_states, total_checks));
  claim.check(fast, fmt("exploration completes in seconds (%.2fs total)",
                        clean_seconds + mutated.seconds));
  claim.check(pruning_sound,
              fmt("stateful-hash pruning preserves the verdict while visiting fewer "
                  "states (%" PRIu64 " vs %" PRIu64 " on the 10-job scenario)",
                  pruned10.result.stats.states, unpruned10.result.stats.states));
  claim.check(mutation_found, "the stale-finish mutation is found by exhaustive exploration");
  claim.check(sweep_blind,
              fmt("the same mutation survives a %d-seed sweep untouched", kSweepSeeds));
}
