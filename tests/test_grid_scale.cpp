// Scale substrate for million-job campaigns: flyweight JobTable semantics
// (row recycling, intrusive state lists, interning), streaming metrics vs
// the batch reductions, P² quantile accuracy, lazy fault arming, and the
// synthetic federation used by bench/grid_scale.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "grid/faults.hpp"
#include "grid/federation.hpp"
#include "grid/job_table.hpp"
#include "grid/metrics.hpp"
#include "grid/site.hpp"
#include "grid_batch_metrics.hpp"

namespace {

using namespace spice;
using namespace spice::grid;

Job make_job(JobId id, int processors, double hours) {
  Job job;
  job.id = id;
  job.name = "job" + std::to_string(id);
  job.processors = processors;
  job.runtime_hours = hours;
  return job;
}

// --- JobTable ----------------------------------------------------------------

TEST(JobTable, InsertMaterializeRoundTrip) {
  JobTable table;
  const SiteId ncsa = table.register_site("NCSA");
  Job job = make_job(7, 32, 12.5);
  job.kind = JobKind::Campaign;
  job.checkpoint_interval_hours = 1.0;
  job.site = "NCSA";
  job.submit_time = 3.0;
  const JobRow row = table.insert(job);

  EXPECT_EQ(table.state(row), RowState::Pending);
  EXPECT_EQ(table.id(row), 7u);
  EXPECT_EQ(table.processors(row), 32);
  EXPECT_DOUBLE_EQ(table.runtime_hours(row), 12.5);
  EXPECT_EQ(table.site(row), ncsa);
  EXPECT_EQ(table.display_name(row), "job7");

  const Job back = table.materialize(row);
  EXPECT_EQ(back.id, job.id);
  EXPECT_EQ(back.name, job.name);
  EXPECT_EQ(back.kind, JobKind::Campaign);
  EXPECT_EQ(back.processors, 32);
  EXPECT_DOUBLE_EQ(back.runtime_hours, 12.5);
  EXPECT_DOUBLE_EQ(back.checkpoint_interval_hours, 1.0);
  EXPECT_EQ(back.site, "NCSA");
  EXPECT_DOUBLE_EQ(back.submit_time, 3.0);
  EXPECT_EQ(back.state, JobState::Pending);
}

TEST(JobTable, StateListsKeepInsertionOrder) {
  JobTable table;
  std::vector<JobRow> rows;
  for (JobId id = 0; id < 5; ++id) rows.push_back(table.insert(make_job(id, 1, 1.0)));

  // All pending, in insertion order.
  JobRow r = table.head(RowState::Pending);
  for (JobId id = 0; id < 5; ++id, r = table.next(r)) EXPECT_EQ(table.id(r), id);
  EXPECT_EQ(r, kNoRow);
  EXPECT_EQ(table.count(RowState::Pending), 5u);

  // Moving the middle row appends it to the tail of the target list.
  table.set_state(rows[2], RowState::Held);
  table.set_state(rows[0], RowState::Held);
  EXPECT_EQ(table.count(RowState::Pending), 3u);
  EXPECT_EQ(table.count(RowState::Held), 2u);
  JobRow h = table.head(RowState::Held);
  EXPECT_EQ(table.id(h), 2u);
  EXPECT_EQ(table.id(table.next(h)), 0u);
  JobRow p = table.head(RowState::Pending);
  EXPECT_EQ(table.id(p), 1u);
  EXPECT_EQ(table.id(table.next(p)), 3u);
  EXPECT_EQ(table.id(table.next(table.next(p))), 4u);
}

TEST(JobTable, RowsAndNamesAreRecycled) {
  JobTable table;
  const JobRow a = table.insert(make_job(1, 1, 1.0));
  const JobRow b = table.insert(make_job(2, 1, 1.0));
  EXPECT_EQ(table.live_rows(), 2u);
  table.release(a);
  EXPECT_EQ(table.live_rows(), 1u);

  // The freed row is handed out again; capacity does not grow.
  const std::size_t cap = table.capacity_rows();
  const JobRow c = table.insert(make_job(3, 1, 1.0));
  EXPECT_EQ(c, a);
  EXPECT_EQ(table.capacity_rows(), cap);
  EXPECT_EQ(table.display_name(c), "job3");
  EXPECT_EQ(table.display_name(b), "job2");
  EXPECT_EQ(table.peak_rows(), 2u);

  // Churn many short-lived rows through one slot: peak stays bounded.
  table.release(c);
  for (JobId id = 10; id < 110; ++id) table.release(table.insert(make_job(id, 1, 1.0)));
  EXPECT_EQ(table.peak_rows(), 2u);
  EXPECT_LE(table.capacity_rows(), 2u);
}

TEST(JobTable, SiteInterningIsIdempotent) {
  JobTable table;
  const SiteId a = table.register_site("NCSA");
  const SiteId b = table.register_site("SDSC");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.register_site("NCSA"), a);
  EXPECT_EQ(table.find_site("SDSC"), b);
  EXPECT_EQ(table.find_site("nowhere"), kNoSite);
  EXPECT_EQ(table.site_name(a), "NCSA");
}

// --- Streaming statistics ----------------------------------------------------

TEST(StreamingTailStats, ExactUnderTheBufferLimit) {
  StreamingTailStats stream(/*exact_limit=*/64);
  std::vector<double> xs;
  Rng rng = Rng::stream(11, 0x7461696cULL, 0);
  for (int i = 0; i < 60; ++i) {
    const double x = rng.exponential(3.0);
    xs.push_back(x);
    stream.add(x);
  }
  ASSERT_TRUE(stream.exact());
  EXPECT_DOUBLE_EQ(stream.median(), percentile(xs, 50.0));
  EXPECT_DOUBLE_EQ(stream.p95(), percentile(xs, 95.0));
  double sum = 0.0, mx = 0.0;
  for (double x : xs) {
    sum += x;
    mx = std::max(mx, x);
  }
  EXPECT_NEAR(stream.mean(), sum / 60.0, 1e-12);
  EXPECT_DOUBLE_EQ(stream.max(), mx);
}

TEST(StreamingTailStats, P2TracksTrueQuantilesAtScale) {
  // 200k heavy-tailed samples: the P² markers must land within a small
  // relative tolerance of the true percentile while holding O(1) state.
  StreamingTailStats stream(/*exact_limit=*/128);
  std::vector<double> xs;
  Rng rng = Rng::stream(2005, 0x7032ULL, 0);
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.exponential(1.0) + 0.25 * rng.uniform();
    xs.push_back(x);
    stream.add(x);
  }
  EXPECT_FALSE(stream.exact());
  const double true_p50 = percentile(xs, 50.0);
  const double true_p95 = percentile(xs, 95.0);
  EXPECT_NEAR(stream.median(), true_p50, 0.02 * true_p50);
  EXPECT_NEAR(stream.p95(), true_p95, 0.02 * true_p95);
  EXPECT_EQ(stream.count(), 200000u);
}

TEST(P2Quantile, ExactForTinySamples) {
  P2Quantile q(0.95);
  for (double x : {5.0, 1.0, 3.0}) q.add(x);
  std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(q.value(), percentile(xs, 95.0));
  EXPECT_EQ(q.count(), 3u);
}

// --- Streaming vs batch campaign metrics -------------------------------------

// A faulted campaign on the paper federation: outages force kills,
// checkpoint credit, requeues and held parks — every accumulator path.
CampaignResult run_faulted_campaign(bool lazy_faults, std::size_t n_jobs) {
  EventQueue events;
  Federation federation(events);
  build_spice_federation(federation);

  CampaignConfig config;
  Rng rng = Rng::stream(42, 0x6a6f6273ULL, 0);
  for (JobId id = 0; id < n_jobs; ++id) {
    Job job = make_job(id, 16 + static_cast<int>(id % 4) * 16,
                       20.0 + rng.uniform() * 30.0);
    job.checkpoint_interval_hours = 1.0;
    config.jobs.push_back(job);
  }
  config.policy = BrokerPolicy::LeastBacklog;
  config.retry.max_holds = 200;
  config.keep_finished_jobs = true;
  Broker broker(federation, config);

  FaultConfig faults;
  faults.seed = 2005;
  faults.site_mtbf_hours = 120.0;
  faults.mean_outage_hours = 5.0;
  faults.horizon_hours = 400.0;
  faults.lazy_arming = lazy_faults;
  for (const char* site : {"NCSA", "SDSC", "PSC", "Manchester", "Oxford", "Leeds", "RAL"})
    faults.scheduled.push_back({site, 30.0, 12.0});
  FaultInjector injector(federation, faults);
  injector.arm();

  broker.submit_all();
  while (!broker.done() && events.step()) {
  }
  return broker.result();
}

TEST(StreamingMetrics, MatchesBatchReductionsOnFaultedCampaign) {
  const CampaignResult result = run_faulted_campaign(/*lazy_faults=*/false, 72);
  ASSERT_EQ(result.completed, 72u);
  ASSERT_FALSE(result.finished_jobs.empty());
  // The campaign must actually have exercised failure paths, or this test
  // proves nothing about the accounting.
  ASSERT_GT(result.cpu.restarted_jobs, 0u);
  ASSERT_GT(result.held_dispatches, 0u);

  const WaitStatistics batch_wait = batch::wait_statistics(result.finished_jobs);
  const std::vector<SiteShare> batch_shares = batch::site_shares(result.finished_jobs);
  const CpuAccounting batch_cpu = batch::cpu_accounting(result.finished_jobs);

  // Means, sums, max and counts are added in the same event order on both
  // paths — exact equality, not tolerance.
  EXPECT_EQ(result.wait_stats.jobs, batch_wait.jobs);
  EXPECT_DOUBLE_EQ(result.wait_stats.mean_hours, batch_wait.mean_hours);
  EXPECT_DOUBLE_EQ(result.wait_stats.max_hours, batch_wait.max_hours);
  // 72 samples sit well inside the exact buffer: quantiles are exact too.
  // (Past the 1024-sample spill they carry the documented ~2% P² tolerance
  // covered by StreamingTailStats.P2TracksTrueQuantilesAtScale.)
  EXPECT_DOUBLE_EQ(result.wait_stats.median_hours, batch_wait.median_hours);
  EXPECT_DOUBLE_EQ(result.wait_stats.p95_hours, batch_wait.p95_hours);

  EXPECT_DOUBLE_EQ(result.cpu.consumed_cpu_hours, batch_cpu.consumed_cpu_hours);
  EXPECT_DOUBLE_EQ(result.cpu.credited_cpu_hours, batch_cpu.credited_cpu_hours);
  EXPECT_DOUBLE_EQ(result.cpu.wasted_cpu_hours, batch_cpu.wasted_cpu_hours);
  EXPECT_EQ(result.cpu.restarted_jobs, batch_cpu.restarted_jobs);
  EXPECT_EQ(result.cpu.checkpointed_restarts, batch_cpu.checkpointed_restarts);

  ASSERT_EQ(result.site_shares.size(), batch_shares.size());
  for (std::size_t i = 0; i < batch_shares.size(); ++i) {
    EXPECT_EQ(result.site_shares[i].site, batch_shares[i].site);
    EXPECT_EQ(result.site_shares[i].jobs, batch_shares[i].jobs);
    EXPECT_DOUBLE_EQ(result.site_shares[i].cpu_hours, batch_shares[i].cpu_hours);
    EXPECT_DOUBLE_EQ(result.site_shares[i].mean_wait_hours, batch_shares[i].mean_wait_hours);
  }
}

TEST(StreamingMetrics, LazyFaultArmingReplaysTheEagerSchedule) {
  // Lazy arming draws the identical per-site outage schedule one event at
  // a time; the whole campaign outcome must be bit-identical.
  const CampaignResult eager = run_faulted_campaign(/*lazy_faults=*/false, 48);
  const CampaignResult lazy = run_faulted_campaign(/*lazy_faults=*/true, 48);
  EXPECT_EQ(lazy.completed, eager.completed);
  EXPECT_EQ(lazy.failed, eager.failed);
  EXPECT_EQ(lazy.makespan_hours, eager.makespan_hours);
  EXPECT_EQ(lazy.total_cpu_hours, eager.total_cpu_hours);
  EXPECT_EQ(lazy.credited_cpu_hours, eager.credited_cpu_hours);
  EXPECT_EQ(lazy.wasted_cpu_hours, eager.wasted_cpu_hours);
  EXPECT_EQ(lazy.held_dispatches, eager.held_dispatches);
  EXPECT_EQ(lazy.checkpoint_restarts, eager.checkpoint_restarts);
  ASSERT_EQ(lazy.site_shares.size(), eager.site_shares.size());
  for (std::size_t i = 0; i < eager.site_shares.size(); ++i) {
    EXPECT_EQ(lazy.site_shares[i].site, eager.site_shares[i].site);
    EXPECT_EQ(lazy.site_shares[i].jobs, eager.site_shares[i].jobs);
  }
}

// --- Campaign waves and O(active) memory -------------------------------------

TEST(Broker, WavesRecycleRowsAcrossBrokers) {
  EventQueue events;
  Federation federation(events);
  build_synthetic_federation(federation, 20, 7);

  std::size_t completed = 0;
  for (int wave = 0; wave < 5; ++wave) {
    CampaignConfig config;
    config.job_factory = [wave](std::size_t i) {
      return make_job(static_cast<JobId>(wave) * 1000 + i, 8, 2.0 + 0.01 * (i % 7));
    };
    config.job_count = 400;
    // Even waves opt out explicitly; odd waves keep the default, which
    // must keep no records either.
    if (wave % 2 == 0) config.keep_finished_jobs = false;
    Broker broker(federation, config);
    broker.submit_all();
    while (!broker.done() && events.step()) {
    }
    const CampaignResult result = broker.result();
    EXPECT_EQ(result.completed, 400u);
    EXPECT_TRUE(result.finished_jobs.empty());
    // The campaign metrics stream without per-job records.
    EXPECT_EQ(result.wait_stats.jobs, 400u);
    std::size_t placed = 0;
    for (const SiteShare& share : result.site_shares) placed += share.jobs;
    EXPECT_EQ(placed, 400u);
    EXPECT_GT(result.cpu.consumed_cpu_hours, 0.0);
    EXPECT_DOUBLE_EQ(result.cpu.credited_cpu_hours, result.cpu.consumed_cpu_hours);
    completed += result.completed;
  }
  EXPECT_EQ(completed, 2000u);
  // Every row was recycled between waves: the table never grew anywhere
  // near the 2000 jobs that passed through it.
  EXPECT_EQ(federation.jobs().live_rows(), 0u);
  EXPECT_LE(federation.jobs().peak_rows(), 400u);
  EXPECT_LE(federation.jobs().capacity_rows(), 400u);
}

// A campaign built out of same-timestamp ties: unit-speed sites, integral
// runtimes, hourly checkpoints, an outage at an integral hour and
// jitter-free retries make completions, starts, kills and requeues land on
// the same hours. Which tied event fires first decides where and when
// jobs run, so this digest pins the queue's (time, seq) order at campaign
// scale; the E18 digest folds per-job outcomes that ties do not move.
TEST(Broker, SameTimestampOrderIsPinned) {
  EventQueue events;
  Federation federation(events);
  federation.add_site({.name = "A", .grid = "G", .processors = 64});
  federation.add_site({.name = "B", .grid = "G", .processors = 64});
  federation.add_site({.name = "C", .grid = "G", .processors = 32});

  CampaignConfig config;
  for (JobId id = 0; id < 60; ++id) {
    config.jobs.push_back(make_job(id, 16 * (1 + static_cast<int>(id % 2)),
                                   static_cast<double>(1 + id % 5)));
  }
  config.checkpoint_interval_hours = 1.0;
  config.retry.jitter_fraction = 0.0;
  config.retry.base_backoff_hours = 1.0;
  config.keep_finished_jobs = true;
  Broker broker(federation, config);

  FaultConfig faults;
  faults.scheduled.push_back({"A", 3.0, 2.0});
  FaultInjector injector(federation, faults);
  injector.arm();

  broker.submit_all();
  while (!broker.done() && events.step()) {
  }
  const CampaignResult r = broker.result();
  ASSERT_EQ(r.completed, 60u);
  ASSERT_GT(r.checkpoint_restarts, 0u);  // the outage really killed jobs

  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * kPrime; };
  const auto mix_double = [&mix](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  for (const Job& job : r.finished_jobs) {  // completion order
    mix(job.id);
    for (const char ch : job.site) mix(static_cast<std::uint64_t>(ch));
    mix_double(job.start_time);
    mix_double(job.end_time);
    mix(static_cast<std::uint64_t>(job.requeues));
  }
  EXPECT_EQ(h, 0x4c04a28024f26133ULL) << std::hex << "digest " << h;
}

TEST(Federation, SyntheticFederationIsDeterministic) {
  EventQueue events_a, events_b;
  Federation a(events_a), b(events_b);
  build_synthetic_federation(a, 50, 2005);
  build_synthetic_federation(b, 50, 2005);
  ASSERT_EQ(a.sites().size(), 50u);
  ASSERT_EQ(b.sites().size(), 50u);
  EXPECT_EQ(a.total_processors(), b.total_processors());
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.sites()[i]->spec().name, b.sites()[i]->spec().name);
    EXPECT_EQ(a.sites()[i]->spec().grid, b.sites()[i]->spec().grid);
    EXPECT_EQ(a.sites()[i]->spec().processors, b.sites()[i]->spec().processors);
    EXPECT_EQ(a.sites()[i]->spec().speed, b.sites()[i]->spec().speed);
  }
  // Different seed → different federation (sanity that the seed matters).
  EventQueue events_c;
  Federation c(events_c);
  build_synthetic_federation(c, 50, 2006);
  bool any_diff = false;
  for (std::size_t i = 0; i < 50; ++i)
    any_diff |= c.sites()[i]->spec().processors != a.sites()[i]->spec().processors ||
                c.sites()[i]->spec().speed != a.sites()[i]->spec().speed;
  EXPECT_TRUE(any_diff);
}

}  // namespace
