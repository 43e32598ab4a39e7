#pragma once
// Depth-first stateless model checker for the grid broker/DES.
//
// The explorer enumerates every schedule of a bounded scenario: all
// permutations of same-timestamp event sets (via EventQueue's
// ScheduleHook) and all nondeterministic choice points (backoff jitter
// levels, fault-injector draw quantiles, the RoundRobin start offset —
// via ChoiceOracle). Following SimGrid's DFSExplorer it is *stateless*:
// a trace is identified by its recorded choice stack, and backtracking
// rebuilds the world from the root and replays the stack with the
// deepest not-yet-exhausted choice incremented. Optional stateful-hash
// pruning cuts traces that re-enter a previously visited abstract state
// (fingerprint of queue + job table + sites + broker counters); with
// pruning off the search is a strict exhaustive proof over the scenario.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "grid/mc/invariants.hpp"
#include "grid/mc/scenarios.hpp"

namespace spice::grid::mc {

/// One recorded nondeterministic decision: at choice point `tag` with
/// `options` alternatives, alternative `chosen` was taken.
struct Choice {
  const char* tag;
  std::uint32_t options;
  std::uint32_t chosen;
};

struct McConfig {
  /// Cut traces whose post-event state hash was already visited. Sound
  /// for invariant checking up to hash abstraction (see DESIGN.md §13);
  /// disable for a strict exhaustive proof.
  bool prune_visited = true;
  /// Base seed passed to the scenario builder (perturbs seeded noise
  /// only; the choice structure must not depend on it).
  std::uint64_t seed = 2005;
};

struct McStats {
  std::uint64_t traces = 0;          ///< root-to-leaf replays executed
  std::uint64_t states = 0;          ///< events fired (transitions explored)
  std::uint64_t distinct_states = 0; ///< fingerprints inserted (pruning on)
  std::uint64_t pruned_traces = 0;   ///< traces cut at a revisited state
  std::uint64_t choice_points = 0;   ///< oracle/hook consultations (n > 1)
  std::uint64_t invariant_checks = 0;
  std::uint64_t max_tie_group = 0;   ///< widest same-timestamp set seen
  std::uint64_t max_depth = 0;       ///< deepest choice stack
  /// True when the whole choice tree was walked without hitting a trace,
  /// step, choice or violation cap — the exhaustiveness claim.
  bool exhausted = false;
};

struct Violation {
  std::string checker;
  std::string message;
  std::uint64_t trace = 0;
  std::uint64_t step = 0;
  double sim_time = 0.0;
  std::vector<Choice> choices;  ///< full stack; replay() reproduces it
};

struct ExploreResult {
  McStats stats;
  std::vector<Violation> violations;
  /// Makespan range over completed (done) traces — the cross-trace
  /// signal for the fault-severity monotonicity check.
  double min_makespan_hours = std::numeric_limits<double>::infinity();
  double max_makespan_hours = -std::numeric_limits<double>::infinity();
  std::uint64_t completed_traces = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Outcome of one non-exploring run (seeded sweep arm or replay).
struct TraceOutcome {
  std::vector<Violation> violations;
  bool done = false;  ///< broker settled (or no broker) when the queue drained
  double makespan_hours = 0.0;
  std::uint64_t steps = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Exhaustively explore `scenario` under `config`, checking `checkers`
/// at every state of every trace.
ExploreResult explore(const Scenario& scenario, const McConfig& config = {},
                      const std::vector<CheckerFactory>& checkers = default_checkers());

/// Run the scenario once with seeded randomness (no oracle, seq-order
/// ties) — one arm of the sweep the explorer is benchmarked against.
TraceOutcome run_seeded(const Scenario& scenario, std::uint64_t seed,
                        const std::vector<CheckerFactory>& checkers = default_checkers());

/// Deterministically re-execute one explored trace from its recorded
/// choice stack (e.g. a Violation's) and re-check the invariants.
TraceOutcome replay(const Scenario& scenario, const std::vector<Choice>& choices,
                    std::uint64_t seed = McConfig{}.seed,
                    const std::vector<CheckerFactory>& checkers = default_checkers());

/// Abstract-state digest used for pruning: event queue + job table +
/// every site + broker progress counters.
[[nodiscard]] std::uint64_t world_fingerprint(const ScenarioWorld& world);

}  // namespace spice::grid::mc
