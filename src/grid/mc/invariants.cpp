#include "grid/mc/invariants.hpp"

#include <cmath>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace spice::grid::mc {

namespace {

constexpr double kCpuTol = 1e-6;  ///< relative FP tolerance for CPU sums

std::string job_str(const JobTable& table, JobRow row) {
  return "job " + std::to_string(table.id(row));
}

/// Base for checkers that observe completions through a federation row
/// listener: violations found inside the fan-out are parked and drained
/// into the next check_step/check_end call.
class ListenerChecker : public InvariantChecker {
 public:
  ~ListenerChecker() override {
    if (world_ != nullptr) world_->federation.remove_row_listener(listener_);
  }
  void on_trace_begin(ScenarioWorld& world) override {
    world_ = &world;
    listener_ = world.federation.add_row_listener([this](JobRow row) { on_row(row); });
  }

 protected:
  virtual void on_row(JobRow row) = 0;
  void drain(std::vector<std::string>& out) {
    for (auto& m : pending_) out.push_back(std::move(m));
    pending_.clear();
  }

  ScenarioWorld* world_ = nullptr;
  std::vector<std::string> pending_;

 private:
  Federation::ListenerId listener_ = 0;
};

/// No lost or double-completed jobs: every campaign job id completes at
/// most once, the broker's completion count matches the fan-out count,
/// and a drained queue means the campaign settled with
/// completed + permanently-failed == requested.
class JobConservation final : public ListenerChecker {
 public:
  [[nodiscard]] std::string name() const override { return "job-conservation"; }

  void check_step(ScenarioWorld& world, std::vector<std::string>& out) override {
    drain(out);
    if (world.broker != nullptr && world.broker->completed() != completed_ids_.size()) {
      out.push_back("broker completed=" + std::to_string(world.broker->completed()) +
                    " but " + std::to_string(completed_ids_.size()) +
                    " distinct jobs completed");
    }
  }

  void check_end(ScenarioWorld& world, std::vector<std::string>& out) override {
    check_step(world, out);
    if (world.broker == nullptr) return;
    if (!world.broker->done()) {
      out.push_back("queue drained but campaign not settled (lost jobs): outstanding=" +
                    std::to_string(world.broker->outstanding()));
      return;
    }
    const std::size_t completed = world.broker->completed();
    const std::size_t failed = world.broker->failed();
    if (completed + failed != world.requested) {
      out.push_back("completed(" + std::to_string(completed) + ") + failed(" +
                    std::to_string(failed) + ") != requested(" +
                    std::to_string(world.requested) + ")");
    }
  }

 private:
  void on_row(JobRow row) override {
    JobTable& table = world_->federation.jobs();
    if (table.kind(row) != JobKind::Campaign) return;
    if (table.state(row) != RowState::Completed) return;
    if (!completed_ids_.insert(table.id(row)).second) {
      pending_.push_back(job_str(table, row) + " completed twice");
    }
  }

  std::unordered_set<JobId> completed_ids_;
};

/// credited + wasted == consumed CPU-hours, per completed job and across
/// the campaign's streaming accounting; a completed job with positive
/// runtime must have banked credited work.
class CpuConservation final : public ListenerChecker {
 public:
  [[nodiscard]] std::string name() const override { return "cpu-conservation"; }

  void check_step(ScenarioWorld& world, std::vector<std::string>& out) override {
    (void)world;
    drain(out);
  }

  void check_end(ScenarioWorld& world, std::vector<std::string>& out) override {
    drain(out);
    if (world.broker == nullptr || !world.broker->done()) return;
    const CampaignResult r = world.broker->result();
    const CpuAccounting& cpu = r.cpu;
    const double scale =
        std::max({1.0, cpu.consumed_cpu_hours, cpu.credited_cpu_hours + cpu.wasted_cpu_hours});
    if (std::abs(cpu.credited_cpu_hours + cpu.wasted_cpu_hours - cpu.consumed_cpu_hours) >
        kCpuTol * scale) {
      out.push_back("credited(" + std::to_string(cpu.credited_cpu_hours) + ") + wasted(" +
                    std::to_string(cpu.wasted_cpu_hours) + ") != consumed(" +
                    std::to_string(cpu.consumed_cpu_hours) + ")");
    }
    // Same identity against the broker's completed-consumed total:
    // credited is completed-consumed minus completed-wasted.
    if (std::abs(r.credited_cpu_hours + completed_wasted_ - r.total_cpu_hours) >
        kCpuTol * std::max(1.0, r.total_cpu_hours)) {
      out.push_back("result credited(" + std::to_string(r.credited_cpu_hours) +
                    ") + completed wasted(" + std::to_string(completed_wasted_) +
                    ") != total(" + std::to_string(r.total_cpu_hours) + ")");
    }
  }

 private:
  void on_row(JobRow row) override {
    JobTable& table = world_->federation.jobs();
    if (table.kind(row) != JobKind::Campaign) return;
    if (table.state(row) != RowState::Completed) return;
    const double consumed = table.consumed_cpu_hours(row);
    const double wasted = table.wasted_cpu_hours(row);
    if (wasted < -kCpuTol || consumed + kCpuTol * std::max(1.0, consumed) < wasted) {
      pending_.push_back(job_str(table, row) + " wasted(" + std::to_string(wasted) +
                         ") exceeds consumed(" + std::to_string(consumed) + ")");
    }
    if (table.runtime_hours(row) > 0.0 && consumed - wasted <= 1e-12) {
      pending_.push_back(job_str(table, row) + " completed with zero credited CPU-hours");
    }
    completed_wasted_ += wasted;
  }

  double completed_wasted_ = 0.0;
};

/// Run-token discipline and per-job monotonicity: each live job id owns
/// exactly one row; Running/Held/Backoff rows hold a pending event token
/// while Queued rows hold none; requeue/hold counters never decrease; a
/// completed run spans positive wall-clock (a zero-wall completion is the
/// stale-finish-event signature).
class TokenMonotone final : public ListenerChecker {
 public:
  [[nodiscard]] std::string name() const override { return "run-token-monotone"; }

  void check_step(ScenarioWorld& world, std::vector<std::string>& out) override {
    drain(out);
    JobTable& table = world.federation.jobs();
    seen_ids_.clear();
    static constexpr RowState kLive[] = {RowState::Pending, RowState::Queued,
                                         RowState::Running, RowState::Held,
                                         RowState::Backoff};
    for (const RowState s : kLive) {
      for (JobRow row = table.head(s); row != kNoRow; row = table.next(row)) {
        if (!seen_ids_.insert(table.id(row)).second) {
          out.push_back(job_str(table, row) + " live on more than one row");
        }
        const EventToken token = table.event_token(row);
        if (s == RowState::Running || s == RowState::Held || s == RowState::Backoff) {
          if (!world.events.pending(token)) {
            out.push_back(job_str(table, row) + " in state " +
                          std::to_string(static_cast<int>(s)) +
                          " without a pending event token");
          }
        } else if (s == RowState::Queued && token != kInvalidToken) {
          out.push_back(job_str(table, row) + " queued but still holds an event token");
        }
        auto [it, inserted] =
            counters_.try_emplace(table.id(row), table.requeues(row), table.holds(row));
        if (!inserted) {
          if (table.requeues(row) < it->second.first || table.holds(row) < it->second.second) {
            out.push_back(job_str(table, row) + " requeue/hold counter went backwards");
          }
          it->second = {table.requeues(row), table.holds(row)};
        }
      }
    }
  }

  void check_end(ScenarioWorld& world, std::vector<std::string>& out) override {
    check_step(world, out);
  }

 private:
  void on_row(JobRow row) override {
    JobTable& table = world_->federation.jobs();
    if (table.state(row) != RowState::Completed) return;
    if (table.end_time(row) <= table.start_time(row) && table.runtime_hours(row) > 0.0) {
      pending_.push_back(job_str(table, row) + " completed a run of zero wall-clock (start=" +
                         std::to_string(table.start_time(row)) +
                         ", end=" + std::to_string(table.end_time(row)) + ")");
    }
  }

  std::unordered_set<JobId> seen_ids_;
  std::unordered_map<JobId, std::pair<std::int32_t, std::int32_t>> counters_;
};

/// Held-set / backoff-timer exclusivity: every parked row (Held or
/// Backoff) owns a live timer, and no two parked rows share one — a
/// recovery release must cancel the losing timer, never leak or alias it.
class HeldBackoffTimers final : public InvariantChecker {
 public:
  [[nodiscard]] std::string name() const override { return "held-backoff-timers"; }

  void check_step(ScenarioWorld& world, std::vector<std::string>& out) override {
    JobTable& table = world.federation.jobs();
    tokens_.clear();
    for (const RowState s : {RowState::Held, RowState::Backoff}) {
      for (JobRow row = table.head(s); row != kNoRow; row = table.next(row)) {
        const EventToken token = table.event_token(row);
        if (token == kInvalidToken || !world.events.pending(token)) {
          out.push_back(job_str(table, row) + " parked without a live timer");
          continue;
        }
        if (!tokens_.insert(token).second) {
          out.push_back(job_str(table, row) + " shares its park timer with another row");
        }
      }
    }
  }

  void check_end(ScenarioWorld& world, std::vector<std::string>& out) override {
    check_step(world, out);
  }

 private:
  std::unordered_set<EventToken> tokens_;
};

/// Recovery-callback discipline for outage scenarios: per-site expected
/// fire counts (overlapping outages merge ⇒ one recovery per merged
/// window) and never while the site is still down.
class RecoveryCount final : public InvariantChecker {
 public:
  explicit RecoveryCount(std::map<std::string, int> expected)
      : expected_(std::move(expected)) {}
  ~RecoveryCount() override {
    if (world_ != nullptr) world_->federation.remove_recovery_listener(listener_);
  }

  [[nodiscard]] std::string name() const override { return "recovery-count"; }

  void on_trace_begin(ScenarioWorld& world) override {
    world_ = &world;
    listener_ = world.federation.add_recovery_listener([this](Site& site) {
      ++counts_[site.name()];
      if (site.in_outage()) {
        pending_.push_back("site " + site.name() + " recovery fired while still in outage");
      }
    });
  }

  void check_step(ScenarioWorld& world, std::vector<std::string>& out) override {
    (void)world;
    for (auto& m : pending_) out.push_back(std::move(m));
    pending_.clear();
    for (const auto& [site, expected] : expected_) {
      if (counts_[site] > expected) {
        out.push_back("site " + site + " recovered " + std::to_string(counts_[site]) +
                      " times, expected at most " + std::to_string(expected));
      }
    }
  }

  void check_end(ScenarioWorld& world, std::vector<std::string>& out) override {
    check_step(world, out);
    for (const auto& [site, expected] : expected_) {
      if (counts_[site] != expected) {
        out.push_back("site " + site + " recovered " + std::to_string(counts_[site]) +
                      " times, expected " + std::to_string(expected));
      }
    }
  }

 private:
  std::map<std::string, int> expected_;
  std::map<std::string, int> counts_;
  std::vector<std::string> pending_;
  ScenarioWorld* world_ = nullptr;
  Federation::ListenerId listener_ = 0;
};

}  // namespace

std::vector<CheckerFactory> default_checkers() {
  return {
      [] { return std::unique_ptr<InvariantChecker>(new JobConservation()); },
      [] { return std::unique_ptr<InvariantChecker>(new CpuConservation()); },
      [] { return std::unique_ptr<InvariantChecker>(new TokenMonotone()); },
      [] { return std::unique_ptr<InvariantChecker>(new HeldBackoffTimers()); },
  };
}

CheckerFactory recovery_count_checker(std::map<std::string, int> expected) {
  return [expected] {
    return std::unique_ptr<InvariantChecker>(new RecoveryCount(expected));
  };
}

}  // namespace spice::grid::mc
