#include "grid/site.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace spice::grid {

namespace {
/// Simulation hours → trace µs on the virtual timeline.
double sim_us(double hours) { return hours * obs::kTraceUsPerHour; }
}  // namespace

// --- BackfillQueue -------------------------------------------------------------

BackfillQueue::BackfillQueue(const JobTable& table, double speed)
    : table_(&table), speed_(speed) {}

double BackfillQueue::fastest_fit(const Block& b, int free_procs) {
  double fastest = std::numeric_limits<double>::infinity();
  for (int i = 0; i < b.steps && b.step_procs[i] <= free_procs; ++i) fastest = b.step_hours[i];
  return fastest;
}

void BackfillQueue::add_step(Block& b, int procs, double hours) {
  int i = 0;  // first step needing more processors
  while (i < b.steps && b.step_procs[i] <= procs) ++i;
  if (i > 0 && b.step_hours[i - 1] <= hours) return;  // dominated
  // The new step replaces [first, last): the steps it dominates.
  const int first = i > 0 && b.step_procs[i - 1] == procs ? i - 1 : i;
  int last = i;
  while (last < b.steps && b.step_hours[last] >= hours) ++last;
  std::array<int, kSteps + 1> p;
  std::array<double, kSteps + 1> h;
  int n = 0;
  for (int k = 0; k < first; ++k, ++n) p[n] = b.step_procs[k], h[n] = b.step_hours[k];
  p[n] = procs;
  h[n++] = hours;
  for (int k = last; k < b.steps; ++k, ++n) p[n] = b.step_procs[k], h[n] = b.step_hours[k];
  if (n > kSteps) {
    // Over budget: merge the adjacent pair closest in hours, (p_j, h_j) +
    // (p_j+1, h_j+1) → (p_j, h_j+1), a lower bound for both.
    int j = 0;
    for (int k = 1; k + 1 < n; ++k) {
      if (h[k] - h[k + 1] < h[j] - h[j + 1]) j = k;
    }
    h[j] = h[j + 1];
    for (int k = j + 1; k + 1 < n; ++k) p[k] = p[k + 1], h[k] = h[k + 1];
    --n;
  }
  std::copy_n(p.begin(), n, b.step_procs.begin());
  std::copy_n(h.begin(), n, b.step_hours.begin());
  b.steps = static_cast<std::uint8_t>(n);
}

void BackfillQueue::rebuild(Block& b) {
  b.steps = 0;
  for (int k = 0; k < b.count; ++k) {
    add_step(b, table_->processors(b.rows[k]), duration(b.rows[k]));
  }
  b.stale = false;
}

void BackfillQueue::push_back(JobRow row) {
  if (blocks_.empty() || blocks_.back()->count == kBlockRows) {
    blocks_.push_back(std::make_unique<Block>());
  }
  Block& b = *blocks_.back();
  b.rows[b.count++] = row;
  add_step(b, table_->processors(row), duration(row));
  ++size_;
}

void BackfillQueue::pop_front() {
  Block& b = *blocks_.front();
  std::copy(b.rows.begin() + 1, b.rows.begin() + b.count, b.rows.begin());
  --b.count;
  b.stale = true;
  --size_;
  if (b.count == 0) blocks_.erase(blocks_.begin());
}

std::vector<JobRow> BackfillQueue::take_all() {
  std::vector<JobRow> rows;
  rows.reserve(size_);
  for_each([&rows](JobRow row) { rows.push_back(row); });
  blocks_.clear();
  size_ = 0;
  return rows;
}

void BackfillQueue::repack() {
  // Writes never overtake reads: every block before the destination is
  // full, so the destination slot is at or before the source slot.
  std::size_t dst = 0;
  int fill = 0;
  for (const auto& src : blocks_) {
    for (int k = 0; k < src->count; ++k) {
      if (fill == kBlockRows) {
        blocks_[dst]->count = kBlockRows;
        blocks_[dst]->stale = true;
        ++dst;
        fill = 0;
      }
      blocks_[dst]->rows[fill++] = src->rows[k];
    }
  }
  blocks_[dst]->count = static_cast<std::uint8_t>(fill);
  blocks_[dst]->stale = true;
  blocks_.resize(dst + 1);
}

template <typename Shadow, typename TryStart>
void BackfillQueue::backfill(const int& free_procs, double now, Shadow&& shadow,
                             TryStart&& try_start) {
  double deadline = 0.0;
  bool have_deadline = false;
  bool erased = false;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    Block& b = *blocks_[i];
    if (b.stale) rebuild(b);
    const double fastest = fastest_fit(b, free_procs);
    if (fastest == std::numeric_limits<double>::infinity()) continue;
    if (!have_deadline) {
      deadline = shadow();
      have_deadline = true;
    }
    if (now + fastest > deadline) continue;
    // Test each row in order; started rows leave, the rest slide down.
    int kept = i == 0 ? 1 : 0;  // the head stays
    for (int k = kept; k < b.count; ++k) {
      const JobRow row = b.rows[k];
      if (!try_start(row, deadline)) b.rows[kept++] = row;
    }
    if (kept != b.count) {
      size_ -= static_cast<std::size_t>(b.count - kept);
      b.count = static_cast<std::uint8_t>(kept);
      b.stale = true;
      erased = true;
    }
  }
  if (!erased) return;
  std::erase_if(blocks_, [](const std::unique_ptr<Block>& b) { return b->count == 0; });
  if (blocks_.size() * (kBlockRows / 2) > size_ + kBlockRows) repack();
}

// --- Site ----------------------------------------------------------------------

void Site::trace(obs::RecordKind kind, const char* name, double ts_hours, double value,
                 obs::TraceContext ctx) {
  obs::FlightRecorder& recorder = *events_.recorder();
  if (trace_track_ == 0) trace_track_ = recorder.new_track("site " + spec_.name);
  recorder.record_at(kind, name, sim_us(ts_hours), value, ctx, trace_track_);
}

Site::Site(SiteSpec spec, EventQueue& events)
    : spec_(std::move(spec)),
      events_(events),
      owned_table_(std::make_unique<JobTable>()),
      table_(owned_table_.get()),
      id_(table_->register_site(spec_.name)),
      free_procs_(spec_.processors),
      queue_(*table_, spec_.speed) {
  SPICE_REQUIRE(spec_.processors > 0, "site needs processors");
  SPICE_REQUIRE(spec_.speed > 0.0, "site speed must be positive");
}

Site::Site(SiteSpec spec, EventQueue& events, JobTable& table)
    : spec_(std::move(spec)),
      events_(events),
      table_(&table),
      id_(table_->register_site(spec_.name)),
      free_procs_(spec_.processors),
      queue_(*table_, spec_.speed) {
  SPICE_REQUIRE(spec_.processors > 0, "site needs processors");
  SPICE_REQUIRE(spec_.speed > 0.0, "site speed must be positive");
}

bool Site::in_outage() const { return events_.now() < outage_until_; }

int Site::max_reserved_overlap(double t0, double t1) const {
  // Small reservation counts: evaluate at every reservation boundary
  // inside the window plus the window start.
  int peak = 0;
  auto reserved_at = [this](double t) {
    int total = 0;
    for (const auto& r : reservations_) {
      if (t >= r.start && t < r.end) total += r.processors;
    }
    return total;
  };
  peak = reserved_at(t0);
  for (const auto& r : reservations_) {
    if (r.start > t0 && r.start < t1) peak = std::max(peak, reserved_at(r.start));
  }
  return peak;
}

bool Site::fits_now(int procs, double duration) const {
  if (procs > free_procs_) return false;
  const double now = events_.now();
  const int reserved = max_reserved_overlap(now, now + duration);
  // Reserved capacity may overlap capacity used by running jobs only if
  // the machine is big enough; conservative: procs + reserved ≤ free.
  return procs + reserved <= free_procs_;
}

double Site::shadow_time(JobRow head) const {
  const double now = events_.now();
  const double duration = table_->remaining_hours(head) / spec_.speed;
  const int procs = table_->processors(head);
  // Candidate start times: now, then each running-job end (freeing its
  // processors) and reservation end, in order. Walking them sorted with a
  // running sum gives free_at_t = free + Σ procs of jobs ending ≤ t.
  std::vector<std::pair<double, int>>& candidates = shadow_scratch_;
  candidates.clear();
  candidates.emplace_back(now, 0);
  for (const auto& r : running_) candidates.emplace_back(r.end_time, table_->processors(r.row));
  for (const auto& res : reservations_) candidates.emplace_back(res.end, 0);
  std::sort(candidates.begin(), candidates.end());

  int free_at_t = free_procs_;
  for (std::size_t i = 0; i < candidates.size();) {
    const double t = candidates[i].first;
    for (; i < candidates.size() && candidates[i].first == t; ++i) {
      free_at_t += candidates[i].second;
    }
    if (t < now) continue;
    const int reserved = max_reserved_overlap(t, t + duration);
    if (procs + reserved <= free_at_t) return t;
  }
  // No feasible candidate (should not happen for jobs that fit the
  // machine); fall back to the last candidate.
  return candidates.back().first;
}

double Site::queued_work_of(JobRow row) const {
  return table_->processors(row) * table_->remaining_hours(row) / spec_.speed;
}

double Site::backlog_hours() const {
  // Running jobs always satisfy end_time ≥ now (their finish event has not
  // fired), so the per-job max(0, end − now) of the naive sum is implied.
  const double running_work = running_end_work_ - events_.now() * running_procs_;
  return (queued_work_ + std::max(0.0, running_work)) / spec_.processors;
}

void Site::submit(Job job) {
  submit_row(table_->insert(job));
}

void Site::submit_row(JobRow row) {
  if (table_->processors(row) > spec_.processors) {
    fail_row(row, "job larger than machine");
    complete_row(row);
    return;
  }
  if (in_outage()) {
    fail_row(row, "site in outage");
    complete_row(row);
    return;
  }
  table_->set_state(row, RowState::Queued);
  table_->submit_time(row) = events_.now();
  table_->site(row) = id_;
  queue_.push_back(row);
  queued_work_ += queued_work_of(row);
  dispatch();
}

void Site::add_reservation(const Reservation& r) {
  SPICE_REQUIRE(r.end > r.start, "reservation window empty");
  SPICE_REQUIRE(r.processors > 0 && r.processors <= spec_.processors,
                "reservation processors out of range");
  reservations_.push_back(r);
  // Capacity changes at the boundaries: re-run dispatch then.
  if (r.start > events_.now()) {
    events_.at(r.start, [this] { dispatch(); });
  }
  events_.at(std::max(r.end, events_.now()), [this] { dispatch(); });
}

void Site::start_row(JobRow row) {
  const double duration = table_->remaining_hours(row) / spec_.speed;
  // Flight-recorder lifecycle marks carry the grid job id so a post-mortem
  // causal tree can hang this job's later engine/hub events off it. Wall
  // clock, not sim clock: the process recorder answers "what was the
  // process doing", the DES recorder "what was the simulated grid doing".
  if (obs::recorder_on()) {
    obs::flight_recorder().record_at(obs::RecordKind::Mark, "grid.job.start", obs::now_us(),
                                     static_cast<double>(table_->processors(row)),
                                     obs::current_context().with_job(table_->id(row)));
  }
  table_->set_state(row, RowState::Running);
  table_->start_time(row) = events_.now();
  // The queued wait is fully known here; emit it retroactively so the
  // Gantt chart shows wait and run back to back on the site's row.
  if (traced()) {
    const double submit = table_->submit_time(row);
    trace(obs::RecordKind::Span, "grid.job.queued", submit, sim_us(events_.now() - submit),
          obs::current_context().with_job(table_->id(row)));
  }
  const int procs = table_->processors(row);
  free_procs_ -= procs;
  SPICE_ENSURE(free_procs_ >= 0, "site over-subscribed");
  const double end = events_.now() + duration;
  table_->running_index(row) = static_cast<std::uint32_t>(running_.size());
  running_.push_back(Running{row, end});
  running_end_work_ += procs * end;
  running_procs_ += procs;
  table_->event_token(row) = events_.at(end, [this, row] { finish_row(row); });
}

void Site::finish_row(JobRow row) {
  if (inject_stale_finish_bug_) {
    // Pre-PR-2 guard: a finish for a row no longer running here is
    // dropped by STATE alone. Nothing distinguishes a stale event from a
    // live one once the same row is running on this site again — that is
    // the re-introduced bug (memory-safe: rows stay valid; behaviorally
    // wrong: a stale event can complete a fresh attempt early).
    if (table_->state(row) != RowState::Running || table_->site(row) != id_) return;
  }
  // O(1) removal: the row carries its running_ index; fix up the entry
  // swapped into its place.
  const std::uint32_t idx = table_->running_index(row);
  const double ended_at = running_[idx].end_time;
  running_[idx] = running_.back();
  table_->running_index(running_[idx].row) = idx;
  running_.pop_back();
  table_->event_token(row) = kInvalidToken;

  const int procs = table_->processors(row);
  free_procs_ += procs;
  running_procs_ -= procs;
  running_end_work_ = running_.empty() ? 0.0 : running_end_work_ - procs * ended_at;
  complete_run(row);
  dispatch();
}

void Site::complete_run(JobRow row) {
  const int procs = table_->processors(row);
  table_->set_state(row, RowState::Completed);
  table_->end_time(row) = events_.now();
  const double wall = events_.now() - table_->start_time(row);
  table_->consumed_cpu_hours(row) += procs * wall;
  table_->completed_fraction(row) = 1.0;
  busy_proc_hours_ += procs * wall;
  {
    static obs::Counter& completed = obs::metrics().counter("grid.site.jobs_completed");
    completed.add(1);
  }
  if (obs::recorder_on()) {
    obs::flight_recorder().record_at(obs::RecordKind::Mark, "grid.job.finish", obs::now_us(),
                                     wall, obs::current_context().with_job(table_->id(row)));
  }
  if (traced()) {
    trace(obs::RecordKind::Span, "grid.job.run", table_->start_time(row), sim_us(wall),
          obs::current_context().with_job(table_->id(row)));
  }
  complete_row(row);
}

void Site::dispatch() {
  if (in_outage()) return;
  // FCFS: start queue heads while they fit.
  while (!queue_.empty()) {
    const JobRow head = queue_.front();
    const double duration = table_->remaining_hours(head) / spec_.speed;
    if (!fits_now(table_->processors(head), duration)) break;
    queue_.pop_front();
    queued_work_ -= queued_work_of(head);
    start_row(head);
  }
  if (queue_.empty()) return;

  // Conservative EASY backfill: jobs behind the head may start only if
  // they fit now and finish before the head's shadow time. The shadow is
  // computed only once some job could fit free_procs_.
  const double now = events_.now();
  queue_.backfill(
      free_procs_, now, [this] { return shadow_time(queue_.front()); },
      [this, now](JobRow row, double shadow) {
        const double duration = table_->remaining_hours(row) / spec_.speed;
        if (!fits_now(table_->processors(row), duration) || now + duration > shadow) {
          return false;
        }
        queued_work_ -= queued_work_of(row);
        start_row(row);
        return true;
      });
}

void Site::fail_row(JobRow row, const char* reason) {
  const bool was_running = table_->state(row) == RowState::Running;
  table_->set_state(row, RowState::Failed);
  table_->end_time(row) = events_.now();
  table_->site(row) = id_;
  table_->fail_reason(row) = reason;
  {
    static obs::Counter& failed = obs::metrics().counter("grid.site.jobs_failed");
    failed.add(1);
  }
  if (obs::recorder_on()) {
    obs::flight_recorder().record_at(obs::RecordKind::Mark, "grid.job.fail", obs::now_us(),
                                     0.0, obs::current_context().with_job(table_->id(row)));
  }
  if (traced()) {
    // Named by the reason literal. A job killed mid-run still gets its
    // partial run on the timeline.
    const obs::TraceContext ctx = obs::current_context().with_job(table_->id(row));
    const double start = table_->start_time(row);
    const double end = table_->end_time(row);
    if (was_running && end > start) {
      trace(obs::RecordKind::Span, reason, start, sim_us(end - start), ctx);
    } else {
      trace(obs::RecordKind::Instant, reason, end, 0.0, ctx);
    }
  }
}

void Site::complete_row(JobRow row) {
  if (on_done_row_) on_done_row_(row);
  // A handler that re-queues the job claims the row by moving it out of
  // its terminal state; otherwise its record is dead and the row recycles.
  const RowState s = table_->state(row);
  if (s == RowState::Completed || s == RowState::Failed) table_->release(row);
}

void Site::fail_until(double until) {
  SPICE_REQUIRE(until > events_.now(), "outage must end in the future");
  outage_until_ = std::max(outage_until_, until);
  {
    static obs::Counter& outages = obs::metrics().counter("grid.site.outages");
    outages.add(1);
  }
  // Forward-dated: the whole outage window is known at onset.
  if (traced()) {
    trace(obs::RecordKind::Span, "grid.site.outage", events_.now(),
          sim_us(until - events_.now()), obs::current_context());
  }
  // Kill running jobs, crediting work up to the last completed checkpoint:
  // the lost tail beyond it is wasted CPU, the rest shrinks the re-run.
  // Each pending finish event is cancelled outright — no stale event ever
  // fires for a killed attempt.
  std::vector<Running> dead;
  dead.swap(running_);
  running_end_work_ = 0.0;
  running_procs_ = 0;
  for (const auto& r : dead) {
    // Mutation mode leaves the killed attempt's finish event armed (the
    // pre-PR-2 behavior); the finish_row state guard is then the only
    // defence against it.
    if (!inject_stale_finish_bug_) events_.cancel(table_->event_token(r.row));
    table_->event_token(r.row) = kInvalidToken;
    const int procs = table_->processors(r.row);
    free_procs_ += procs;
    const double elapsed = events_.now() - table_->start_time(r.row);
    const double interval = table_->checkpoint_interval_hours(r.row);
    double credited_wall = 0.0;
    if (interval > 0.0 && elapsed > 0.0) {
      credited_wall = std::floor(elapsed / interval) * interval;
    }
    const double banked =
        credited_wall > 0.0
            ? std::min(1.0, table_->completed_fraction(r.row) +
                                credited_wall * spec_.speed / table_->runtime_hours(r.row))
            : table_->completed_fraction(r.row);
    if (banked >= 1.0) {
      // The outage tied with the job's finish and fired first, and the
      // last checkpoint banked all of its work: the run completed. Failing
      // it would re-run the job for zero hours.
      complete_run(r.row);
      continue;
    }
    table_->consumed_cpu_hours(r.row) += procs * elapsed;
    table_->wasted_cpu_hours(r.row) += procs * (elapsed - credited_wall);
    table_->completed_fraction(r.row) = banked;
    fail_row(r.row, "site outage");
    complete_row(r.row);
  }
  // Kill queued jobs (no CPU burned, nothing credited or wasted).
  const std::vector<JobRow> queued = queue_.take_all();
  queued_work_ = 0.0;
  for (const JobRow row : queued) {
    fail_row(row, "site outage");
    complete_row(row);
  }
  // Resume dispatching when the outage lifts. A longer overlapping outage
  // scheduled later suppresses the earlier recovery.
  events_.at(until, [this] {
    if (in_outage()) return;
    if (on_recovered_) on_recovered_();
    dispatch();
  });
}

std::uint64_t Site::fingerprint() const {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * kPrime; };
  const auto mix_double = [&mix](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(id_)));
  mix(static_cast<std::uint64_t>(free_procs_));
  mix_double(outage_until_);
  mix_double(busy_proc_hours_);
  mix_double(queued_work_);
  mix(queue_.size());
  queue_.for_each([&](JobRow row) { mix(table_->id(row)); });
  // Running-set membership sorted by job id: the running_ vector's order
  // only encodes swap-remove history, which interleavings permute freely.
  std::vector<std::pair<JobId, double>> running;
  running.reserve(running_.size());
  for (const auto& r : running_) running.emplace_back(table_->id(r.row), r.end_time);
  std::sort(running.begin(), running.end());
  mix(running.size());
  for (const auto& [id, end] : running) {
    mix(id);
    mix_double(end);
  }
  mix(reservations_.size());
  return h;
}

}  // namespace spice::grid
