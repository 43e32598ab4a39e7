#include "grid/federation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"

namespace spice::grid {

namespace {
double sim_us(double hours) { return hours * obs::kTraceUsPerHour; }
}  // namespace

Site& Federation::add_site(const SiteSpec& spec) {
  SPICE_REQUIRE(find(spec.name) == nullptr, "duplicate site name: " + spec.name);
  sites_.push_back(std::make_unique<Site>(spec, events_, table_));
  Site& site = *sites_.back();
  site.set_row_completion_handler([this](JobRow row) {
    for (const auto& [id, listener] : row_listeners_) listener(row);
  });
  site.set_recovery_handler([this, &site] {
    for (const auto& [id, listener] : recovery_listeners_) listener(site);
  });
  return site;
}

Site* Federation::find(const std::string& name) {
  for (const auto& s : sites_) {
    if (s->name() == name) return s.get();
  }
  return nullptr;
}

std::vector<Site*> Federation::sites_in_grid(const std::string& grid) {
  std::vector<Site*> out;
  for (const auto& s : sites_) {
    if (s->spec().grid == grid) out.push_back(s.get());
  }
  return out;
}

int Federation::total_processors() const {
  int total = 0;
  for (const auto& s : sites_) total += s->spec().processors;
  return total;
}

Federation::ListenerId Federation::add_row_listener(RowListener listener) {
  const ListenerId id = next_listener_id_++;
  row_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void Federation::remove_row_listener(ListenerId id) {
  std::erase_if(row_listeners_, [id](const auto& entry) { return entry.first == id; });
}

Federation::ListenerId Federation::add_recovery_listener(RecoveryListener listener) {
  const ListenerId id = next_listener_id_++;
  recovery_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void Federation::remove_recovery_listener(ListenerId id) {
  std::erase_if(recovery_listeners_,
                [id](const auto& entry) { return entry.first == id; });
}

double RetryPolicy::delay_hours(JobId job, int attempt) const {
  SPICE_REQUIRE(attempt >= 1, "retry attempts count from 1");
  double delay = base_backoff_hours;
  for (int a = 1; a < attempt && delay < max_backoff_hours; ++a) delay *= backoff_factor;
  delay = std::min(delay, max_backoff_hours);
  // Deterministic jitter from (seed, job, attempt): identical reruns stay
  // bit-identical, but co-failing jobs never retry in lockstep.
  SplitMix64 mix(seed ^ (job * 0x9e3779b97f4a7c15ULL) ^
                 (static_cast<std::uint64_t>(attempt) << 32));
  const double unit =
      static_cast<double>(mix.next() >> 11) * 0x1.0p-53;  // uniform [0, 1)
  return delay * (1.0 - jitter_fraction + 2.0 * jitter_fraction * unit);
}

double RetryPolicy::delay_hours(JobId job, int attempt, ChoiceOracle* oracle) const {
  if (oracle == nullptr || jitter_fraction <= 0.0) return delay_hours(job, attempt);
  SPICE_REQUIRE(attempt >= 1, "retry attempts count from 1");
  SPICE_REQUIRE(oracle_jitter_levels >= 1, "need at least one jitter level");
  double delay = base_backoff_hours;
  for (int a = 1; a < attempt && delay < max_backoff_hours; ++a) delay *= backoff_factor;
  delay = std::min(delay, max_backoff_hours);
  // Enumerable jitter: the oracle picks one of `oracle_jitter_levels`
  // mid-quantile points of the seeded draw's uniform [0, 1) range.
  const auto levels = static_cast<std::size_t>(oracle_jitter_levels);
  const std::size_t k = oracle->choose("retry.jitter", levels);
  const double unit = (static_cast<double>(k) + 0.5) / static_cast<double>(levels);
  return delay * (1.0 - jitter_fraction + 2.0 * jitter_fraction * unit);
}

void Broker::trace(obs::RecordKind kind, const char* name, JobRow row, double value) {
  obs::FlightRecorder& recorder = *federation_.events().recorder();
  if (trace_track_ == 0) trace_track_ = recorder.new_track("broker");
  recorder.record_at(kind, name, sim_us(federation_.events().now()), value,
                     obs::current_context().with_job(federation_.jobs().id(row)),
                     trace_track_);
}

Broker::Broker(Federation& federation, CampaignConfig config)
    : federation_(federation), config_(std::move(config)) {
  SPICE_REQUIRE(!config_.jobs.empty() ||
                    (config_.job_factory != nullptr && config_.job_count > 0),
                "campaign has no jobs");
  SPICE_REQUIRE(config_.completion_floor >= 0.0 && config_.completion_floor <= 1.0,
                "completion floor must be a fraction");
  row_listener_ = federation_.add_row_listener([this](JobRow row) { on_row_done(row); });
  recovery_listener_ =
      federation_.add_recovery_listener([this](Site&) { release_held(); });
}

Broker::~Broker() {
  federation_.remove_row_listener(row_listener_);
  federation_.remove_recovery_listener(recovery_listener_);
}

void Broker::submit_all() {
  SPICE_REQUIRE(!submitted_, "campaign already submitted");
  submitted_ = true;
  result_.submit_time = federation_.events().now();
  // Under an oracle the RoundRobin rotation's starting site is a choice
  // point: production runs always start at 0, but nothing about the
  // invariants may depend on the phase, so grid/mc enumerates it.
  if (config_.oracle != nullptr && config_.policy == BrokerPolicy::RoundRobin &&
      federation_.sites().size() > 1) {
    round_robin_next_ =
        config_.oracle->choose("broker.rr_offset", federation_.sites().size());
  }
  const std::size_t n = config_.jobs.empty() ? config_.job_count : config_.jobs.size();
  result_.requested = n;
  result_.completion_floor = config_.completion_floor;
  outstanding_ = n;
  JobTable& table = federation_.jobs();
  for (std::size_t i = 0; i < n; ++i) {
    Job job = config_.jobs.empty() ? config_.job_factory(i) : config_.jobs[i];
    job.kind = JobKind::Campaign;
    if (job.checkpoint_interval_hours <= 0.0) {
      job.checkpoint_interval_hours = config_.checkpoint_interval_hours;
    }
    dispatch(table.insert(job), kNoSite);
  }
}

Site* Broker::choose_site(JobRow row, SiteId exclude) {
  JobTable& table = federation_.jobs();
  const int procs = table.processors(row);
  usable_.clear();
  for (const auto& s : federation_.sites()) {
    if (s->site_id() == exclude) continue;
    if (s->in_outage()) continue;
    if (!s->spec().grid_enabled) continue;
    if (procs > s->spec().processors) continue;
    if (!config_.restrict_grid.empty() && s->spec().grid != config_.restrict_grid) continue;
    if (config_.policy == BrokerPolicy::SingleSite && s->name() != config_.single_site) continue;
    usable_.push_back(s.get());
  }
  if (usable_.empty()) return nullptr;
  switch (config_.policy) {
    case BrokerPolicy::SingleSite:
      return usable_.front();
    case BrokerPolicy::RoundRobin: {
      // Rotate over the FULL federation site list, skipping unusable
      // entries, so an outage or per-retry exclusion does not shift the
      // rotation phase of every later dispatch.
      const auto& all = federation_.sites();
      for (std::size_t k = 0; k < all.size(); ++k) {
        Site* candidate = all[(round_robin_next_ + k) % all.size()].get();
        if (std::find(usable_.begin(), usable_.end(), candidate) == usable_.end()) continue;
        round_robin_next_ = (round_robin_next_ + k + 1) % all.size();
        return candidate;
      }
      return usable_.front();  // unreachable: usable ⊆ all
    }
    case BrokerPolicy::LeastBacklog: {
      Site* best = nullptr;
      double best_load = std::numeric_limits<double>::infinity();
      const double runtime = table.runtime_hours(row);
      for (Site* s : usable_) {
        // Queued work per processor, scaled by speed so faster machines
        // look cheaper for the same backlog.
        const double load =
            (s->backlog_hours() + runtime * procs / s->spec().processors) /
            s->spec().speed;
        if (load < best_load) {
          best_load = load;
          best = s;
        }
      }
      return best;
    }
  }
  return usable_.front();
}

bool Broker::feasible_somewhere(JobRow row) const {
  const int procs = federation_.jobs().processors(row);
  for (const auto& s : federation_.sites()) {
    if (!s->spec().grid_enabled) continue;
    if (procs > s->spec().processors) continue;
    if (!config_.restrict_grid.empty() && s->spec().grid != config_.restrict_grid) continue;
    if (config_.policy == BrokerPolicy::SingleSite && s->name() != config_.single_site)
      continue;
    return true;
  }
  return false;
}

void Broker::dispatch(JobRow row, SiteId exclude) {
  {
    static obs::Counter& dispatches = obs::metrics().counter("grid.broker.dispatches");
    dispatches.add(1);
  }
  Site* site = choose_site(row, exclude);
  if (site == nullptr) {
    // No site can take it RIGHT NOW. If some site could ever run it, park
    // it in the held queue instead of losing it (every site momentarily in
    // outage is the situation SPICE's production runs had to survive).
    if (feasible_somewhere(row)) {
      hold(row);
    } else {
      fail_permanently(row, /*release_row=*/true);
    }
    return;
  }
  if (federation_.jobs().completed_fraction(row) > 0.0) result_.checkpoint_restarts += 1;
  if (traced()) {
    trace(obs::RecordKind::Instant, "grid.broker.dispatch", row,
          static_cast<double>(site->site_id()));
  }
  site->submit_row(row);
}

void Broker::hold(JobRow row) {
  JobTable& table = federation_.jobs();
  table.holds(row) += 1;
  if (table.holds(row) > config_.retry.max_holds) {
    fail_permanently(row, /*release_row=*/true);
    return;
  }
  result_.held_dispatches += 1;
  table.set_state(row, RowState::Held);
  table.site(row) = kNoSite;
  const double delay = config_.retry.delay_hours(
      table.id(row), table.requeues(row) + table.holds(row), config_.oracle);
  {
    static obs::Counter& holds = obs::metrics().counter("grid.broker.holds");
    holds.add(1);
  }
  // Async span over the park: begin here, end where the job leaves the
  // held list (backoff timer or site recovery). Paired by job (context)
  // and hold count (value), which disambiguates repeated parks.
  if (traced()) {
    trace(obs::RecordKind::Begin, "grid.broker.held", row, static_cast<double>(table.holds(row)));
  }
  // The timer owns the row's token while Held; release_held cancels it so
  // a recovery-released job never gets a second dispatch from a stale
  // timer.
  table.event_token(row) =
      federation_.events().after(delay, [this, row] { retry_held(row); });
}

void Broker::retry_held(JobRow row) {
  JobTable& table = federation_.jobs();
  if (table.state(row) != RowState::Held) return;  // armour; tokens are cancelled
  table.event_token(row) = kInvalidToken;
  end_held_span(row);
  table.set_state(row, RowState::Pending);
  dispatch(row, kNoSite);
}

void Broker::release_held() {
  JobTable& table = federation_.jobs();
  held_batch_.clear();
  for (JobRow row = table.head(RowState::Held); row != kNoRow; row = table.next(row)) {
    held_batch_.push_back(row);
  }
  // Dispatch outside the list walk: a re-hold relinks the row at the tail.
  for (const JobRow row : held_batch_) {
    federation_.events().cancel(table.event_token(row));
    table.event_token(row) = kInvalidToken;
    end_held_span(row);
    table.set_state(row, RowState::Pending);
    dispatch(row, kNoSite);
  }
}

void Broker::end_held_span(JobRow row) {
  if (traced()) {
    trace(obs::RecordKind::End, "grid.broker.held", row,
          static_cast<double>(federation_.jobs().holds(row)));
  }
}

void Broker::fail_permanently(JobRow row, bool release_row) {
  JobTable& table = federation_.jobs();
  table.set_state(row, RowState::Failed);
  table.end_time(row) = federation_.events().now();
  {
    static obs::Counter& failures = obs::metrics().counter("grid.broker.permanent_failures");
    failures.add(1);
  }
  if (traced()) trace(obs::RecordKind::Instant, "grid.broker.gave_up", row, 0.0);
  result_.failed += 1;
  stream_.on_failed(table.consumed_cpu_hours(row));
  result_.makespan_hours =
      std::max(result_.makespan_hours, table.end_time(row) - result_.submit_time);
  if (config_.keep_finished_jobs) result_.finished_jobs.push_back(table.materialize(row));
  SPICE_ENSURE(outstanding_ > 0, "job accounting underflow");
  --outstanding_;
  if (release_row) table.release(row);
}

void Broker::on_row_done(JobRow row) {
  JobTable& table = federation_.jobs();
  if (table.kind(row) != JobKind::Campaign) return;
  if (table.state(row) == RowState::Completed) {
    SPICE_ENSURE(outstanding_ > 0, "job accounting underflow");
    --outstanding_;
    result_.completed += 1;
    result_.total_cpu_hours += table.consumed_cpu_hours(row);
    if (config_.keep_finished_jobs) result_.finished_jobs.push_back(table.materialize(row));
    result_.makespan_hours =
        std::max(result_.makespan_hours, table.end_time(row) - result_.submit_time);
    stream_.on_completed(table.processors(row), table.submit_time(row),
                         table.start_time(row), table.end_time(row),
                         table.consumed_cpu_hours(row), table.wasted_cpu_hours(row),
                         table.requeues(row), table.site(row));
    return;  // row stays Completed; the site releases it after the fan-out
  }
  // Failed mid-run (outage): requeue with exponential backoff if budget
  // remains. Checkpoint credit lives in the row, so the re-run only
  // covers the lost tail.
  if (table.requeues(row) >= config_.max_requeues) {
    // Inside the site's completion fan-out: leave the terminal row for the
    // site to release.
    fail_permanently(row, /*release_row=*/false);
    return;
  }
  {
    static obs::Counter& requeues = obs::metrics().counter("grid.broker.requeues");
    requeues.add(1);
  }
  table.requeues(row) += 1;
  const SiteId failed_site = table.site(row);
  // Claiming the row (Failed → Backoff) keeps it alive past the fan-out.
  table.set_state(row, RowState::Backoff);
  const double delay =
      config_.retry.delay_hours(table.id(row), table.requeues(row), config_.oracle);
  table.event_token(row) =
      federation_.events().after(delay, [this, row, failed_site] {
        federation_.jobs().set_state(row, RowState::Pending);
        federation_.jobs().event_token(row) = kInvalidToken;
        dispatch(row, failed_site);
      });
}

CampaignResult Broker::result() const {
  SPICE_REQUIRE(done(), "campaign still in flight");
  CampaignResult finalized = result_;
  finalized.wait_stats = stream_.wait_statistics();
  finalized.site_shares = stream_.site_shares(federation_.jobs());
  finalized.cpu = stream_.cpu_accounting();
  finalized.credited_cpu_hours = finalized.cpu.credited_cpu_hours;
  finalized.wasted_cpu_hours = finalized.cpu.wasted_cpu_hours;
  return finalized;
}

void build_spice_federation(Federation& federation) {
  // US TeraGrid nodes used by SPICE (§III, Fig. 5) with 2005-era scale.
  federation.add_site({.name = "NCSA", .grid = "TeraGrid", .processors = 1744,
                       .speed = 1.0, .hidden_ip = false, .lightpath = true});
  federation.add_site({.name = "SDSC", .grid = "TeraGrid", .processors = 512,
                       .speed = 1.0, .hidden_ip = false, .lightpath = true});
  federation.add_site({.name = "PSC", .grid = "TeraGrid", .processors = 2048,
                       .speed = 1.1, .hidden_ip = true, .lightpath = true});
  // UK NGS high-end nodes ("used all nodes on the UK high-end NGS").
  federation.add_site({.name = "Manchester", .grid = "NGS", .processors = 256,
                       .speed = 0.9, .hidden_ip = false, .lightpath = true});
  federation.add_site({.name = "Oxford", .grid = "NGS", .processors = 128,
                       .speed = 0.9, .hidden_ip = false, .lightpath = false});
  federation.add_site({.name = "Leeds", .grid = "NGS", .processors = 256,
                       .speed = 0.9, .hidden_ip = false, .lightpath = false});
  federation.add_site({.name = "RAL", .grid = "NGS", .processors = 128,
                       .speed = 0.9, .hidden_ip = false, .lightpath = false});
  // HPCx: big but never usable (§V-C.2: immature middleware deployment,
  // hidden IP, no lightpath) — in the model, out of the broker's reach.
  federation.add_site({.name = "HPCx", .grid = "NGS", .processors = 1600,
                       .speed = 1.2, .hidden_ip = true, .lightpath = false,
                       .grid_enabled = false});
}

void build_synthetic_federation(Federation& federation, std::size_t n_sites,
                                std::uint64_t seed) {
  SPICE_REQUIRE(n_sites > 0, "synthetic federation needs sites");
  static const char* kGrids[] = {"TeraGrid", "NGS", "DEISA", "OSG"};
  static const int kSizes[] = {128, 256, 512, 1024};
  Rng rng = Rng::stream(seed, 0x73697465ULL /*"site"*/, n_sites);
  for (std::size_t i = 0; i < n_sites; ++i) {
    SiteSpec spec;
    spec.name = "site" + std::to_string(i);
    spec.grid = kGrids[i % 4];
    spec.processors = kSizes[rng.uniform_index(4)];
    spec.speed = rng.uniform(0.8, 1.2);
    federation.add_site(spec);
  }
}

}  // namespace spice::grid
