#include "grid/mc/explorer.hpp"

#include <algorithm>
#include <exception>
#include <string_view>
#include <unordered_set>

#include "common/error.hpp"
#include "grid/job_table.hpp"
#include "grid/site.hpp"

namespace spice::grid::mc {

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// Exploration caps; hitting any of them leaves McStats::exhausted false.
constexpr std::uint64_t kMaxTraces = 1u << 20;
constexpr std::uint64_t kMaxStepsPerTrace = 200000;
constexpr std::size_t kMaxChoicesPerTrace = 4096;
/// A broken invariant tends to recur in every sibling trace, so exploring
/// stops after this many violations.
constexpr std::size_t kMaxViolations = 64;

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

/// The explorer's ChoiceOracle + ScheduleHook in one object: replays the
/// recorded prefix of the trace's choice stack, then extends the stack
/// with first-alternative (index 0 = seq-order / lowest-quantile) choices.
/// Backtracking never happens here — explore() edits the stack between
/// traces and replays from the root.
class TraceOracle final : public ChoiceOracle, public ScheduleHook {
 public:
  TraceOracle(std::vector<Choice>& stack, std::size_t max_choices, McStats* stats)
      : stack_(stack), replay_len_(stack.size()), max_choices_(max_choices), stats_(stats) {}

  std::size_t choose(const char* tag, std::size_t n) override {
    if (n <= 1) return 0;  // no alternatives ⇒ no choice point recorded
    if (stats_ != nullptr) ++stats_->choice_points;
    if (pos_ < stack_.size()) {
      const Choice& c = stack_[pos_];
      SPICE_ENSURE(c.options == n && std::string_view(c.tag) == tag,
                   std::string("choice replay diverged at '") + tag +
                       "' — the scenario's choice structure is not deterministic");
      ++pos_;
      return c.chosen;
    }
    if (stack_.size() >= max_choices_) {
      truncated_ = true;
      return 0;
    }
    stack_.push_back({tag, static_cast<std::uint32_t>(n), 0});
    ++pos_;
    return 0;
  }

  std::size_t pick_tie(double time, std::size_t group_size) override {
    (void)time;
    if (stats_ != nullptr) {
      stats_->max_tie_group = std::max<std::uint64_t>(stats_->max_tie_group, group_size);
    }
    return choose("des.tie", group_size);
  }

  /// True once past the replayed prefix: every state reached from here is
  /// met for the first time *along this trace*; the prefix's states were
  /// already visited (and hashed) by the trace that recorded it.
  [[nodiscard]] bool fresh() const { return pos_ >= replay_len_; }
  [[nodiscard]] bool truncated() const { return truncated_; }

 private:
  std::vector<Choice>& stack_;
  std::size_t pos_ = 0;
  std::size_t replay_len_;
  std::size_t max_choices_;
  McStats* stats_;
  bool truncated_ = false;
};

struct RawViolation {
  std::string checker;
  std::string message;
  std::uint64_t step;
  double sim_time;
};

struct TraceBody {
  std::vector<RawViolation> violations;
  bool done = false;         ///< queue drained and broker (if any) settled
  bool drained = false;      ///< queue emptied (vs pruned / capped)
  bool pruned = false;
  bool step_capped = false;
  double makespan = 0.0;
  std::uint64_t steps = 0;
};

/// Execute one trace body over an already-built world: step the queue,
/// probe every checker after every event (violations are collected, never
/// thrown), optionally cut at a revisited state, and run the end-of-trace
/// checks only when the queue really drained. Checkers are created and
/// destroyed inside this frame, while the world is alive — their
/// destructors deregister federation listeners.
TraceBody run_trace(ScenarioWorld& world, const std::vector<CheckerFactory>& factories,
                    std::uint64_t max_steps, McStats* stats,
                    const std::function<bool()>& prune) {
  TraceBody body;
  std::vector<std::unique_ptr<InvariantChecker>> checkers;
  checkers.reserve(factories.size());
  for (const auto& factory : factories) checkers.push_back(factory());
  for (auto& checker : checkers) checker->on_trace_begin(world);

  std::vector<std::string> msgs;
  const auto probe = [&](const auto& method) {
    for (auto& checker : checkers) {
      msgs.clear();
      method(*checker, msgs);
      if (stats != nullptr) ++stats->invariant_checks;
      for (auto& m : msgs) {
        body.violations.push_back({checker->name(), std::move(m), body.steps,
                                   world.events.now()});
      }
    }
  };

  while (!world.events.empty()) {
    if (body.steps >= max_steps) {
      body.step_capped = true;
      break;
    }
    try {
      world.events.step();
    } catch (const std::exception& e) {
      ++body.steps;
      if (stats != nullptr) ++stats->states;
      body.violations.push_back({"exception", e.what(), body.steps, world.events.now()});
      return body;
    }
    ++body.steps;
    if (stats != nullptr) ++stats->states;
    probe([&world](InvariantChecker& c, std::vector<std::string>& out) {
      c.check_step(world, out);
    });
    if (prune && prune()) {
      body.pruned = true;
      break;
    }
  }

  if (!body.pruned && !body.step_capped) {
    body.drained = true;
    probe([&world](InvariantChecker& c, std::vector<std::string>& out) {
      c.check_end(world, out);
    });
    body.done = world.broker == nullptr || world.broker->done();
    body.makespan = (world.broker != nullptr && world.broker->done())
                        ? world.broker->result().makespan_hours
                        : world.events.now();
  }
  return body;
}

Violation package(RawViolation&& raw, std::uint64_t trace, const std::vector<Choice>& stack) {
  return {std::move(raw.checker), std::move(raw.message), trace, raw.step, raw.sim_time, stack};
}

TraceOutcome package_outcome(TraceBody&& body, const std::vector<Choice>& stack) {
  TraceOutcome out;
  out.done = body.done;
  out.makespan_hours = body.makespan;
  out.steps = body.steps;
  out.violations.reserve(body.violations.size());
  for (auto& raw : body.violations) out.violations.push_back(package(std::move(raw), 0, stack));
  return out;
}

}  // namespace

ExploreResult explore(const Scenario& scenario, const McConfig& config,
                      const std::vector<CheckerFactory>& checkers) {
  SPICE_REQUIRE(static_cast<bool>(scenario.build), "scenario has no builder");
  ExploreResult result;
  std::vector<Choice> stack;
  std::unordered_set<std::uint64_t> visited;
  bool truncated = false;
  bool capped = false;

  while (true) {
    if (result.stats.traces >= kMaxTraces) {
      capped = true;
      break;
    }
    TraceOracle oracle(stack, kMaxChoicesPerTrace, &result.stats);
    std::unique_ptr<ScenarioWorld> world = scenario.build(&oracle, config.seed);
    SPICE_ENSURE(world != nullptr, "scenario builder returned no world");
    world->events.set_schedule_hook(&oracle);
    const std::uint64_t trace_id = result.stats.traces++;

    std::function<bool()> prune;
    if (config.prune_visited) {
      // Only hash states past the replayed prefix: the prefix's states
      // were inserted by the trace that recorded it, so checking them
      // here would cut every backtracked trace at its divergence point.
      prune = [&]() {
        if (!oracle.fresh()) return false;
        if (visited.insert(world_fingerprint(*world)).second) {
          ++result.stats.distinct_states;
          return false;
        }
        return true;
      };
    }

    TraceBody body = run_trace(*world, checkers, kMaxStepsPerTrace, &result.stats, prune);
    if (body.pruned) ++result.stats.pruned_traces;
    if (body.step_capped || oracle.truncated()) truncated = true;
    result.stats.max_depth = std::max<std::uint64_t>(result.stats.max_depth, stack.size());
    if (body.done) {
      ++result.completed_traces;
      result.min_makespan_hours = std::min(result.min_makespan_hours, body.makespan);
      result.max_makespan_hours = std::max(result.max_makespan_hours, body.makespan);
    }
    for (auto& raw : body.violations) {
      if (result.violations.size() >= kMaxViolations) {
        capped = true;
        break;
      }
      result.violations.push_back(package(std::move(raw), trace_id, stack));
    }
    if (capped) break;

    // Backtrack: drop the exhausted suffix, advance the deepest choice
    // that still has untried alternatives, replay from the root.
    while (!stack.empty() && stack.back().chosen + 1 >= stack.back().options) {
      stack.pop_back();
    }
    if (stack.empty()) break;
    ++stack.back().chosen;
  }

  result.stats.exhausted = !capped && !truncated;
  return result;
}

TraceOutcome run_seeded(const Scenario& scenario, std::uint64_t seed,
                        const std::vector<CheckerFactory>& checkers) {
  SPICE_REQUIRE(static_cast<bool>(scenario.build), "scenario has no builder");
  std::unique_ptr<ScenarioWorld> world = scenario.build(nullptr, seed);
  SPICE_ENSURE(world != nullptr, "scenario builder returned no world");
  TraceBody body = run_trace(*world, checkers, kMaxStepsPerTrace, nullptr, {});
  return package_outcome(std::move(body), {});
}

TraceOutcome replay(const Scenario& scenario, const std::vector<Choice>& choices,
                    std::uint64_t seed, const std::vector<CheckerFactory>& checkers) {
  SPICE_REQUIRE(static_cast<bool>(scenario.build), "scenario has no builder");
  std::vector<Choice> stack = choices;
  TraceOracle oracle(stack, kMaxChoicesPerTrace, nullptr);
  std::unique_ptr<ScenarioWorld> world = scenario.build(&oracle, seed);
  SPICE_ENSURE(world != nullptr, "scenario builder returned no world");
  world->events.set_schedule_hook(&oracle);
  TraceBody body = run_trace(*world, checkers, kMaxStepsPerTrace, nullptr, {});
  return package_outcome(std::move(body), stack);
}

std::uint64_t world_fingerprint(const ScenarioWorld& world) {
  std::uint64_t h = kFnvBasis;
  mix(h, world.events.fingerprint());
  mix(h, world.federation.jobs().fingerprint());
  for (const auto& site : world.federation.sites()) mix(h, site->fingerprint());
  if (world.broker != nullptr) {
    mix(h, world.broker->completed());
    mix(h, world.broker->failed());
    mix(h, world.broker->outstanding());
    mix(h, world.broker->round_robin_cursor());
  }
  return h;
}

}  // namespace spice::grid::mc
