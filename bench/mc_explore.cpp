// Exhaustive-interleaving model checking of the grid broker/DES (grid/mc):
// enumerate every same-timestamp permutation and nondeterministic choice
// of a set of bounded campaign scenarios, asserting the broker invariants
// at every reachable state — then demonstrate what that buys over seeded
// testing: a re-introduced stale-finish-event bug (the pre-PR-2 defect,
// behind Site::set_inject_stale_finish_bug) is found by exploration in
// milliseconds but survives a 100-seed sweep, because same-timestamp tie
// order is seq-determined and no seed ever varies it.
//
// Writes BENCH_mc_explore.json (per-scenario states-explored /
// invariants-checked counts plus the claim-check verdicts).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "grid/mc/explorer.hpp"
#include "grid/mc/invariants.hpp"
#include "grid/mc/scenarios.hpp"

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
  const auto t0 = std::chrono::steady_clock::now();
  Row row{scenario.name, explore(scenario, config, checkers), 0.0, prune};
  row.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return row;
}

void print_row(const Row& row) {
  const McStats& s = row.result.stats;
  std::printf("%-26s %5s %8llu %9llu %9llu %8llu %8llu %6llu %5llu %6.3fs  %s\n",
              row.name.c_str(), row.pruning ? "on" : "off",
              static_cast<unsigned long long>(s.traces),
              static_cast<unsigned long long>(s.states),
              static_cast<unsigned long long>(s.invariant_checks),
              static_cast<unsigned long long>(s.choice_points),
              static_cast<unsigned long long>(s.pruned_traces),
              static_cast<unsigned long long>(s.max_tie_group),
              static_cast<unsigned long long>(s.max_depth), row.seconds,
              !s.exhausted          ? "TRUNCATED"
              : row.result.ok()     ? "all green"
                                    : "VIOLATIONS");
}

void json_row(std::ofstream& json, const Row& row, bool last) {
  const McStats& s = row.result.stats;
  json << "  {\n"
       << "   \"scenario\": \"" << row.name << "\",\n"
       << "   \"pruning\": " << (row.pruning ? "true" : "false") << ",\n"
       << "   \"traces\": " << s.traces << ",\n"
       << "   \"states_explored\": " << s.states << ",\n"
       << "   \"distinct_states\": " << s.distinct_states << ",\n"
       << "   \"pruned_traces\": " << s.pruned_traces << ",\n"
       << "   \"choice_points\": " << s.choice_points << ",\n"
       << "   \"invariants_checked\": " << s.invariant_checks << ",\n"
       << "   \"max_tie_group\": " << s.max_tie_group << ",\n"
       << "   \"max_depth\": " << s.max_depth << ",\n"
       << "   \"exhausted\": " << (s.exhausted ? "true" : "false") << ",\n"
       << "   \"violations\": " << row.result.violations.size() << ",\n"
       << "   \"completed_traces\": " << row.result.completed_traces << ",\n"
       << "   \"min_makespan_hours\": " << row.result.min_makespan_hours << ",\n"
       << "   \"max_makespan_hours\": " << row.result.max_makespan_hours << ",\n"
       << "   \"seconds\": " << row.seconds << "\n"
       << "  }" << (last ? "\n" : ",\n");
}

}  // namespace

int main() {
  std::printf("================================================================\n");
  std::printf("grid/mc | exhaustive interleaving exploration of broker scenarios\n");
  std::printf("================================================================\n\n");
  std::printf("%-26s %5s %8s %9s %9s %8s %8s %6s %5s %7s  %s\n", "scenario", "prune",
              "traces", "states", "checks", "choices", "pruned", "tie", "depth", "time",
              "verdict");

  // --- Clean scenarios: every interleaving, every invariant -----------------
  std::vector<Row> rows;
  rows.push_back(run(recovery_backoff_tie_scenario(), false,
                     [] {
                       auto c = default_checkers();
                       c.push_back(recovery_count_checker({{"S", 1}}));
                       return c;
                     }()));
  rows.push_back(run(overlapping_outage_scenario(), false,
                     [] {
                       auto c = default_checkers();
                       c.push_back(recovery_count_checker({{"A", 1}, {"B", 1}}));
                       return c;
                     }()));
  rows.push_back(run(round_robin_outage_scenario(6), false));
  rows.push_back(run(round_robin_outage_scenario(10), false));
  rows.push_back(run(round_robin_outage_scenario(10), true));
  rows.push_back(run(fault_draw_scenario(), false));
  rows.push_back(run(backfill_outage_tie_scenario(), false,
                     [] {
                       auto c = default_checkers();
                       c.push_back(recovery_count_checker({{"S", 1}}));
                       return c;
                     }()));
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
  const auto sweep_t0 = std::chrono::steady_clock::now();
  for (int seed = 1; seed <= kSweepSeeds; ++seed) {
    const TraceOutcome outcome =
        run_seeded(stale_finish_scenario(true), static_cast<std::uint64_t>(seed));
    if (!outcome.ok()) ++sweep_detections;
  }
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_t0).count();
  std::printf("explorer: %llu traces -> %zu violation(s) [%s]\n",
              static_cast<unsigned long long>(mutated.result.stats.traces),
              mutated.result.violations.size(), mutation_checkers.c_str());
  std::printf("seed sweep: %d/%d seeds detect the bug (%.3fs)\n", sweep_detections,
              kSweepSeeds, sweep_seconds);

  // --- Claim checks ---------------------------------------------------------
  const bool coverage = rows.size() >= 3;
  const bool fast = clean_seconds + mutated.seconds < 30.0;
  const bool pruning_sound = pruned10.result.ok() == unpruned10.result.ok() &&
                             pruned10.result.stats.exhausted &&
                             pruned10.result.stats.states <= unpruned10.result.stats.states;
  const bool sweep_blind = sweep_detections == 0;

  std::printf("\n--- Claim checks ---\n");
  std::printf("[%s] %zu bounded scenarios exhaustively explored, all invariants green "
              "(%llu states, %llu invariant checks)\n",
              clean_ok && coverage ? "PASS" : "FAIL", rows.size(),
              static_cast<unsigned long long>(total_states),
              static_cast<unsigned long long>(total_checks));
  std::printf("[%s] exploration completes in seconds (%.2fs total)\n",
              fast ? "PASS" : "FAIL", clean_seconds + mutated.seconds);
  std::printf("[%s] stateful-hash pruning preserves the verdict while visiting fewer "
              "states (%llu vs %llu on the 10-job scenario)\n",
              pruning_sound ? "PASS" : "FAIL",
              static_cast<unsigned long long>(pruned10.result.stats.states),
              static_cast<unsigned long long>(unpruned10.result.stats.states));
  std::printf("[%s] the stale-finish mutation is found by exhaustive exploration\n",
              mutation_found ? "PASS" : "FAIL");
  std::printf("[%s] the same mutation survives a %d-seed sweep untouched\n",
              sweep_blind ? "PASS" : "FAIL", kSweepSeeds);

  std::ofstream json("BENCH_mc_explore.json");
  json << "{\n \"bench\": \"mc_explore\",\n \"scenarios\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) json_row(json, rows[i], false);
  json_row(json, mutated, true);
  json << " ],\n"
       << " \"mutation\": {\n"
       << "  \"found_by_exploration\": " << (mutation_found ? "true" : "false") << ",\n"
       << "  \"violations\": " << mutated.result.violations.size() << ",\n"
       << "  \"checkers\": \"" << mutation_checkers << "\",\n"
       << "  \"sweep_seeds\": " << kSweepSeeds << ",\n"
       << "  \"sweep_detections\": " << sweep_detections << "\n"
       << " },\n"
       << " \"claims\": {\n"
       << "  \"scenarios_exhausted_all_green\": " << (clean_ok && coverage ? "true" : "false")
       << ",\n"
       << "  \"completes_in_seconds\": " << (fast ? "true" : "false") << ",\n"
       << "  \"pruning_preserves_verdict\": " << (pruning_sound ? "true" : "false") << ",\n"
       << "  \"mutation_found_by_explorer\": " << (mutation_found ? "true" : "false") << ",\n"
       << "  \"mutation_missed_by_sweep\": " << (sweep_blind ? "true" : "false") << "\n"
       << " }\n"
       << "}\n";
  std::printf("\nwrote BENCH_mc_explore.json\n");

  return (clean_ok && coverage && fast && pruning_sound && mutation_found && sweep_blind)
             ? 0
             : 1;
}
