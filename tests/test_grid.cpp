// Grid substrate: DES invariants, batch scheduling with backfill,
// reservations, failures, federation brokering, co-scheduling and the
// §V-C.3 coordination-process model.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "grid/coordination.hpp"
#include "grid/coscheduling.hpp"
#include "grid/des.hpp"
#include "grid/faults.hpp"
#include "grid/federation.hpp"
#include "grid/metrics.hpp"
#include "grid/site.hpp"
#include "grid/workflow.hpp"
#include "grid/workload.hpp"

namespace {

using namespace spice;
using namespace spice::grid;

// --- DES core -----------------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.at(3.0, [&] { order.push_back(3); });
  q.at(1.0, [&] { order.push_back(1); });
  q.at(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.at(5.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, HandlersMayScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.at(1.0, [&] {
    ++fired;
    q.after(1.0, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.at(1.0, [&] { ++fired; });
  q.at(10.0, [&] { ++fired; });
  q.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, RejectsPastEvents) {
  EventQueue q;
  q.at(5.0, [] {});
  q.run();
  EXPECT_THROW(q.at(1.0, [] {}), PreconditionError);
}

TEST(EventQueue, FifoAcrossManyEqualTimeEvents) {
  // Thousands of same-timestamp events interleaved with other times force
  // the calendar through bucket resizes; the (time, seq) tie-break must
  // keep exact scheduling order throughout.
  EventQueue q;
  std::vector<int> order;
  order.reserve(4000);
  for (int i = 0; i < 2000; ++i) {
    q.at(7.0, [&order, i] { order.push_back(i); });
    q.at(3.0 + 0.001 * i, [] {});
  }
  q.run();
  ASSERT_EQ(order.size(), 2000u);
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(order[i], i);
  EXPECT_EQ(q.processed(), 4000u);
}

TEST(EventQueue, AllSameTimestampSurvivesResizeStress) {
  // Every event at ONE timestamp far from the epoch origin: width sampling
  // sees only zero gaps, and the occupancy-triggered resizes re-bucket an
  // equal-timestamp set repeatedly. The magnitude-relative fallback width
  // must keep the cluster addressable (the old fixed 1.0-width fallback
  // mapped the whole set into overflow on every resize), and the
  // (time, seq) tie-break must keep exact FIFO order throughout.
  constexpr double kWhen = 1.0e9;
  constexpr int kEvents = 5000;  // >> kMinBuckets·4 ⇒ several grow resizes
  EventQueue q;
  std::vector<int> order;
  order.reserve(kEvents);
  std::vector<EventToken> tokens;
  tokens.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    tokens.push_back(q.at(kWhen, [&order, i] { order.push_back(i); }));
  }
  // Cancel a scattered subset so stale entries ride through the resizes.
  for (int i = 0; i < kEvents; i += 7) EXPECT_TRUE(q.cancel(tokens[i]));
  q.run();
  std::vector<int> expected;
  for (int i = 0; i < kEvents; ++i) {
    if (i % 7 != 0) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
  EXPECT_DOUBLE_EQ(q.now(), kWhen);

  // The queue must stay serviceable at the far epoch: same-timestamp and
  // slightly-later follow-ups land and fire in order.
  std::vector<int> tail;
  q.at(kWhen, [&tail] { tail.push_back(0); });
  q.at(kWhen + 1e-3, [&tail] { tail.push_back(1); });
  q.run();
  EXPECT_EQ(tail, (std::vector<int>{0, 1}));
}

TEST(EventQueue, RunUntilFiresEventExactlyAtBoundary) {
  EventQueue q;
  std::vector<double> fired;
  q.at(2.0, [&] { fired.push_back(2.0); });
  q.at(5.0, [&] { fired.push_back(5.0); });
  q.at(5.0 + 1e-9, [&] { fired.push_back(5.1); });
  q.run_until(5.0);
  // An event AT t_end fires; the one just beyond stays queued.
  EXPECT_EQ(fired, (std::vector<double>{2.0, 5.0}));
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, HandlerMayScheduleAtTheCurrentTimestamp) {
  // An event scheduled from inside a handler at now() runs in this very
  // sweep, after every earlier-scheduled event at the same time.
  EventQueue q;
  std::vector<int> order;
  q.at(4.0, [&] {
    order.push_back(0);
    q.at(4.0, [&] { order.push_back(3); });  // same timestamp, new seq
  });
  q.at(4.0, [&] { order.push_back(1); });
  q.at(4.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, CancelledEventNeverFires) {
  EventQueue q;
  int fired = 0;
  const EventToken token = q.at(2.0, [&] { ++fired; });
  q.at(1.0, [&] { ++fired; });
  EXPECT_TRUE(q.pending(token));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(token));
  EXPECT_FALSE(q.pending(token));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.cancel(token));  // second cancel is a harmless no-op
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.processed(), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);  // the cancelled event never advanced time
}

TEST(EventQueue, CancelTokenOfFiredEventIsInert) {
  EventQueue q;
  const EventToken token = q.at(1.0, [] {});
  q.run();
  EXPECT_FALSE(q.pending(token));
  EXPECT_FALSE(q.cancel(token));
  // The slot is recycled; the stale token must not cancel the new event.
  int fired = 0;
  q.at(2.0, [&] { ++fired; });
  EXPECT_FALSE(q.cancel(token));
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, HandlerMayCancelALaterEvent) {
  EventQueue q;
  int fired = 0;
  EventToken doomed = kInvalidToken;
  q.at(1.0, [&] { EXPECT_TRUE(q.cancel(doomed)); });
  doomed = q.at(1.0, [&] { ++fired; });  // same sweep, later seq
  q.at(2.0, [&] { ++fired; });
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

/// Differential oracle for the calendar queue: the obvious ordered map
/// keyed by (time, seq), so equal times fire in scheduling order. Same
/// at/cancel/run_until/run/now/processed surface as EventQueue; tokens are
/// seq + 1, so kInvalidToken never names an event.
class ReferenceQueue {
 public:
  EventToken at(double t, std::function<void()> handler) {
    SPICE_REQUIRE(t >= now_, "cannot schedule an event in the past");
    const std::uint64_t seq = times_.size();
    times_.push_back(t);
    events_.emplace(std::make_pair(t, seq), std::move(handler));
    return seq + 1;
  }
  bool cancel(EventToken token) {
    if (token == kInvalidToken || token > times_.size()) return false;
    return events_.erase(std::make_pair(times_[token - 1], token - 1)) > 0;
  }
  bool step() {
    if (events_.empty()) return false;
    const auto head = events_.begin();
    now_ = head->first.first;
    ++processed_;
    std::function<void()> handler = std::move(head->second);
    events_.erase(head);
    handler();
    return true;
  }
  void run_until(double t_end) {
    while (!events_.empty() && events_.begin()->first.first <= t_end) step();
    if (now_ < t_end) now_ = t_end;
  }
  void run() {
    while (step()) {
    }
  }
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

 private:
  std::map<std::pair<double, std::uint64_t>, std::function<void()>> events_;
  std::vector<double> times_;  ///< schedule time of each seq, for cancel
  double now_ = 0.0;
  std::uint64_t processed_ = 0;
};

TEST(EventQueue, CalendarMatchesReferenceQueueDifferentially) {
  // Drive the calendar queue and the reference queue through an identical
  // randomized schedule/cancel script (deterministic Rng stream) and
  // require identical fire sequences — the calendar's bucketing must be
  // unobservable.
  for (const std::uint64_t seed : {1ULL, 7ULL, 2005ULL}) {
    EventQueue cal;
    ReferenceQueue ref;
    std::vector<std::pair<double, int>> fired_cal;
    std::vector<std::pair<double, int>> fired_ref;
    std::vector<EventToken> tokens_cal;
    std::vector<EventToken> tokens_ref;
    Rng rng = Rng::stream(seed, 0xde5ULL, 0);
    int label = 0;
    auto schedule_batch = [&](auto& q, auto& fired, auto& tokens, int base) {
      int l = base;
      for (int i = 0; i < 200; ++i) {
        // Times cluster around a few hot spots plus a uniform tail, with
        // deliberate exact duplicates to stress the FIFO tie-break.
        const double r = rng.uniform();
        const double t = q.now() + (i % 5 == 0 ? 1.0 : r * 50.0);
        const int id = l++;
        tokens.push_back(q.at(t, [&q, &fired, id] { fired.push_back({q.now(), id}); }));
      }
    };
    for (int round = 0; round < 5; ++round) {
      const auto draws_before = rng;  // replay identical draws for both queues
      schedule_batch(cal, fired_cal, tokens_cal, label);
      rng = draws_before;
      schedule_batch(ref, fired_ref, tokens_ref, label);
      label += 200;
      // Cancel a deterministic subset on both queues.
      for (std::size_t k = round; k < tokens_cal.size(); k += 7) {
        cal.cancel(tokens_cal[k]);
        ref.cancel(tokens_ref[k]);
      }
      // Drain partway, then schedule the next batch on the advanced clock.
      cal.run_until(cal.now() + 20.0);
      ref.run_until(ref.now() + 20.0);
      ASSERT_EQ(fired_cal, fired_ref) << "diverged in round " << round;
    }
    cal.run();
    ref.run();
    ASSERT_EQ(fired_cal, fired_ref);
    EXPECT_EQ(cal.processed(), ref.processed());
  }
}

TEST(EventQueue, DifferentialFuzzWithHandlerSchedulingAndMidRunCancels) {
  // The previous differential test schedules and cancels only from
  // OUTSIDE the dispatch loop. This one interprets a pre-generated action
  // script from INSIDE handlers: fired events spawn follow-ups at exactly
  // the current timestamp (growing the live tie group mid-sweep) and
  // cancel earlier events mid-run. Fire order, timestamps, cancel results
  // and processed counts must match the reference queue exactly.
  for (const std::uint64_t seed : {3ULL, 11ULL, 4242ULL}) {
    struct Action {
      double offset;      ///< 0.0 ⇒ follow-up lands at the current timestamp
      int spawn;          ///< follow-up events scheduled by this handler
      bool cancel_some;   ///< handler cancels a deterministic earlier token
    };
    std::vector<Action> script;
    Rng rng = Rng::stream(seed, 0xf0220ULL, 0);
    for (int i = 0; i < 400; ++i) {
      script.push_back({rng.uniform() < 0.4 ? 0.0 : rng.uniform() * 8.0,
                        rng.uniform() < 0.35 ? static_cast<int>(rng.uniform_index(3)) : 0,
                        rng.uniform() < 0.25});
    }

    auto run_backend = [&script]<typename Queue>() {
      Queue q;
      std::vector<EventToken> tokens;
      std::vector<std::tuple<double, int, int>> log;  // (now, id, cancel result)
      int next = 0;
      std::function<void(int)> fire = [&](int id) {
        const Action& a = script[static_cast<std::size_t>(id) % script.size()];
        for (int k = 0; k < a.spawn && next < static_cast<int>(script.size()); ++k) {
          const int child = next++;
          const Action& ca = script[static_cast<std::size_t>(child) % script.size()];
          tokens.push_back(q.at(q.now() + ca.offset, [&fire, child] { fire(child); }));
        }
        int cancelled = -1;
        if (a.cancel_some && !tokens.empty()) {
          const std::size_t victim =
              static_cast<std::size_t>(id) * 31 % tokens.size();
          cancelled = q.cancel(tokens[victim]) ? 1 : 0;
        }
        log.emplace_back(q.now(), id, cancelled);
      };
      for (int i = 0; i < 64; ++i) {
        const int id = next++;
        tokens.push_back(
            q.at(script[static_cast<std::size_t>(id)].offset, [&fire, id] { fire(id); }));
      }
      q.run();
      return std::make_pair(log, q.processed());
    };

    const auto [log_cal, processed_cal] = run_backend.operator()<EventQueue>();
    const auto [log_ref, processed_ref] = run_backend.operator()<ReferenceQueue>();
    ASSERT_EQ(log_cal, log_ref) << "queues diverged for seed " << seed;
    EXPECT_EQ(processed_cal, processed_ref);
    EXPECT_GT(log_cal.size(), 64u);  // the script really spawned follow-ups
  }
}

// --- Site scheduling -------------------------------------------------------------

Job make_job(JobId id, int procs, double hours) {
  Job j;
  j.id = id;
  j.name = "job" + std::to_string(id);
  j.processors = procs;
  j.runtime_hours = hours;
  return j;
}

struct SiteFixture {
  EventQueue events;
  Site site;
  std::vector<Job> done;
  explicit SiteFixture(SiteSpec spec = {.name = "S", .grid = "G", .processors = 128})
      : site(std::move(spec), events) {
    site.set_completion_handler([this](const Job& j) { done.push_back(j); });
  }
};

TEST(Site, RunsJobImmediatelyWhenIdle) {
  SiteFixture f;
  f.site.submit(make_job(1, 64, 2.0));
  f.events.run();
  ASSERT_EQ(f.done.size(), 1u);
  EXPECT_EQ(f.done[0].state, JobState::Completed);
  EXPECT_DOUBLE_EQ(f.done[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(f.done[0].end_time, 2.0);
}

TEST(Site, SpeedScalesRuntime) {
  SiteFixture f({.name = "fast", .grid = "G", .processors = 128, .speed = 2.0});
  f.site.submit(make_job(1, 64, 2.0));
  f.events.run();
  EXPECT_DOUBLE_EQ(f.done[0].end_time, 1.0);
}

TEST(Site, QueuesWhenFull) {
  SiteFixture f;
  f.site.submit(make_job(1, 128, 4.0));
  f.site.submit(make_job(2, 128, 1.0));
  f.events.run();
  ASSERT_EQ(f.done.size(), 2u);
  EXPECT_DOUBLE_EQ(f.done[1].start_time, 4.0);  // FCFS
  EXPECT_DOUBLE_EQ(f.done[1].wait_hours(), 4.0);
}

TEST(Site, NeverOversubscribesProcessors) {
  SiteFixture f;
  // Many jobs of mixed sizes; invariant checked inside the site (SPICE_ENSURE)
  // plus here via concurrent accounting.
  for (JobId i = 0; i < 20; ++i) f.site.submit(make_job(i, 48, 1.0 + (i % 3)));
  f.events.run();
  EXPECT_EQ(f.done.size(), 20u);
  // Reconstruct concurrency from the timeline.
  for (double t = 0.25; t < 20.0; t += 0.5) {
    int used = 0;
    for (const auto& j : f.done) {
      if (j.start_time <= t && t < j.end_time) used += j.processors;
    }
    EXPECT_LE(used, 128) << "at t=" << t;
  }
}

TEST(Site, BackfillFillsHolesWithoutDelayingHead) {
  SiteFixture f;
  f.site.submit(make_job(1, 100, 4.0));  // running; 28 procs free
  f.site.submit(make_job(2, 128, 2.0));  // head: must wait for everything
  f.site.submit(make_job(3, 20, 3.0));   // fits now and ends at 3 < 4 → backfill
  f.site.submit(make_job(4, 20, 10.0));  // fits now but would end at 10 > 4 → no
  f.events.run();
  ASSERT_EQ(f.done.size(), 4u);
  auto find = [&](JobId id) {
    for (const auto& j : f.done) {
      if (j.id == id) return j;
    }
    throw std::runtime_error("missing job");
  };
  EXPECT_DOUBLE_EQ(find(3).start_time, 0.0);   // backfilled
  EXPECT_DOUBLE_EQ(find(2).start_time, 4.0);   // head undelayed
  EXPECT_GE(find(4).start_time, 4.0);          // waited
}

TEST(Site, ReservationBlocksBatchJobs) {
  SiteFixture f;
  f.site.add_reservation({2.0, 6.0, 128, "demo"});
  f.site.submit(make_job(1, 128, 3.0));  // would overlap [0,3) with the reservation
  f.events.run();
  ASSERT_EQ(f.done.size(), 1u);
  // Must wait until the reservation ends at 6.
  EXPECT_DOUBLE_EQ(f.done[0].start_time, 6.0);
}

TEST(Site, SmallJobRunsBesideReservation) {
  SiteFixture f;
  f.site.add_reservation({2.0, 6.0, 64, "demo"});
  f.site.submit(make_job(1, 32, 3.0));  // 32 + 64 ≤ 128 at all times
  f.events.run();
  EXPECT_DOUBLE_EQ(f.done[0].start_time, 0.0);
}

TEST(Site, OutageKillsRunningAndQueuedJobs) {
  SiteFixture f;
  f.site.submit(make_job(1, 128, 10.0));
  f.site.submit(make_job(2, 64, 1.0));
  f.events.at(3.0, [&] { f.site.fail_until(50.0); });
  f.events.run();
  ASSERT_EQ(f.done.size(), 2u);
  EXPECT_EQ(f.done[0].state, JobState::Failed);
  EXPECT_EQ(f.done[1].state, JobState::Failed);
  EXPECT_TRUE(f.site.in_outage() || f.events.now() >= 50.0);
}

// The hand-written recovery-vs-backoff / overlapping-outage ordering tests
// that used to live here were superseded by exhaustive tie-group
// enumeration: tests/test_grid_mc.cpp explores EVERY interleaving of those
// races (Explorer.RecoveryVersusBackoffRaceExhaustive and
// Explorer.OverlappingOutagesThroughTheHeldQueueExhaustive, with the
// recovery-count invariant asserting one recovery per merged window)
// instead of pinning the two seq orders by hand.

TEST(Site, RejectsOversizeJob) {
  SiteFixture f;
  f.site.submit(make_job(1, 4096, 1.0));
  ASSERT_EQ(f.done.size(), 1u);
  EXPECT_EQ(f.done[0].state, JobState::Failed);
}

TEST(Site, BusyProcHoursAccounting) {
  SiteFixture f;
  f.site.submit(make_job(1, 64, 2.0));
  f.site.submit(make_job(2, 64, 3.0));
  f.events.run();
  EXPECT_DOUBLE_EQ(f.site.busy_proc_hours(), 64 * 2.0 + 64 * 3.0);
}

// --- workload generator --------------------------------------------------------------

TEST(Workload, GeneratesRequestedUtilization) {
  EventQueue events;
  Site site({.name = "big", .grid = "G", .processors = 512}, events);
  WorkloadParams params;
  params.target_utilization = 0.6;
  params.horizon_hours = 300.0;
  const std::size_t n = generate_background_load(site, events, params);
  EXPECT_GT(n, 10u);
  events.run();
  // Utilization of the busy window should be in the rough vicinity of the
  // target (queueing + finite horizon make it inexact).
  const double window = events.now();
  const double utilization = site.busy_proc_hours() / (512.0 * window);
  EXPECT_GT(utilization, 0.3);
  EXPECT_LT(utilization, 0.9);
}

TEST(Workload, ZeroUtilizationGeneratesNothing) {
  EventQueue events;
  Site site({.name = "s", .grid = "G", .processors = 128}, events);
  WorkloadParams params;
  params.target_utilization = 0.0;
  EXPECT_EQ(generate_background_load(site, events, params), 0u);
}

// --- federation & broker ----------------------------------------------------------------

TEST(Federation, BuildsThePaperTopology) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  EXPECT_EQ(fed.sites().size(), 8u);
  EXPECT_NE(fed.find("NCSA"), nullptr);
  EXPECT_NE(fed.find("HPCx"), nullptr);
  EXPECT_EQ(fed.sites_in_grid("TeraGrid").size(), 3u);
  EXPECT_EQ(fed.sites_in_grid("NGS").size(), 5u);
  EXPECT_TRUE(fed.find("PSC")->spec().hidden_ip);
  EXPECT_FALSE(fed.find("HPCx")->spec().lightpath);
}

CampaignConfig small_campaign(std::size_t n_jobs, BrokerPolicy policy,
                              const std::string& single = "") {
  CampaignConfig c;
  for (JobId i = 0; i < n_jobs; ++i) c.jobs.push_back(make_job(i + 1, 128, 8.0));
  c.policy = policy;
  c.single_site = single;
  return c;
}

TEST(Broker, CompletesCampaignAcrossFederation) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  Broker broker(fed, small_campaign(24, BrokerPolicy::LeastBacklog));
  broker.submit_all();
  events.run();
  ASSERT_TRUE(broker.done());
  const CampaignResult r = broker.result();
  EXPECT_EQ(r.completed, 24u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.jobs_per_site.size(), 1u);  // actually spread out
  EXPECT_GT(r.total_cpu_hours, 0.0);
}

TEST(Broker, SingleSitePolicyUsesOneSite) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  Broker broker(fed, small_campaign(8, BrokerPolicy::SingleSite, "SDSC"));
  broker.submit_all();
  events.run();
  const CampaignResult r = broker.result();
  EXPECT_EQ(r.completed, 8u);
  ASSERT_EQ(r.jobs_per_site.size(), 1u);
  EXPECT_EQ(r.jobs_per_site.begin()->first, "SDSC");
  // SDSC has 512 procs → 4 concurrent 128-proc jobs → two waves of 8 h.
  EXPECT_DOUBLE_EQ(r.makespan_hours, 16.0);
}

TEST(Broker, FederationBeatsSingleSiteOnMakespan) {
  auto run = [](BrokerPolicy policy, const std::string& single) {
    EventQueue events;
    Federation fed(events);
    build_spice_federation(fed);
    Broker broker(fed, small_campaign(40, policy, single));
    broker.submit_all();
    events.run();
    return broker.result().makespan_hours;
  };
  const double federated = run(BrokerPolicy::LeastBacklog, "");
  const double single = run(BrokerPolicy::SingleSite, "SDSC");
  EXPECT_LT(federated, single);
}

TEST(Broker, RequeuesJobsAfterOutage) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  // Force everything onto Manchester first, then take it down.
  CampaignConfig config = small_campaign(4, BrokerPolicy::SingleSite, "Manchester");
  config.policy = BrokerPolicy::SingleSite;
  Broker broker(fed, config);
  broker.submit_all();
  events.at(1.0, [&] { fed.find("Manchester")->fail_until(500.0); });
  events.run();
  ASSERT_TRUE(broker.done());
  const CampaignResult r = broker.result();
  // Jobs failed on Manchester but the broker routed the retries elsewhere…
  // except policy SingleSite pins them; they fail outright once the site
  // rejects them. Verify the accounting is consistent either way.
  EXPECT_EQ(r.completed + r.failed, 4u);
}

TEST(Broker, LeastBacklogSurvivesOutageViaRequeue) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  Broker broker(fed, small_campaign(30, BrokerPolicy::LeastBacklog));
  broker.submit_all();
  events.at(0.5, [&] { fed.find("NCSA")->fail_until(400.0); });
  events.run();
  const CampaignResult r = broker.result();
  EXPECT_EQ(r.completed, 30u) << "redundant sites must absorb the outage";
  EXPECT_EQ(r.failed, 0u);
}

// --- fault tolerance: retries, held jobs, checkpoint credit ------------------------------

TEST(RetryPolicy, BackoffGrowsDeterministicallyWithJitter) {
  const RetryPolicy p;
  const double d1 = p.delay_hours(7, 1);
  const double d2 = p.delay_hours(7, 2);
  const double d5 = p.delay_hours(7, 5);
  // Jitter is ±25%, growth ×2: consecutive attempts cannot overlap.
  EXPECT_GT(d2, d1);
  EXPECT_GT(d5, d2);
  EXPECT_LE(d5, p.max_backoff_hours * (1.0 + p.jitter_fraction));
  // Same (job, attempt) → same delay; different job → different jitter.
  EXPECT_DOUBLE_EQ(p.delay_hours(7, 3), p.delay_hours(7, 3));
  EXPECT_NE(p.delay_hours(7, 3), p.delay_hours(8, 3));
}

TEST(Broker, HoldsJobsWhenNoSiteUsableThenDispatchesOnRecovery) {
  EventQueue events;
  Federation fed(events);
  fed.add_site({.name = "Solo", .grid = "G", .processors = 128});
  fed.find("Solo")->fail_until(5.0);
  Broker broker(fed, small_campaign(2, BrokerPolicy::LeastBacklog));
  broker.submit_all();
  events.run();
  ASSERT_TRUE(broker.done());
  const CampaignResult r = broker.result();
  // Before the held queue these jobs were marked Failed outright.
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GE(r.held_dispatches, 2u);
  for (const auto& j : r.finished_jobs) {
    EXPECT_GE(j.start_time, 5.0) << "nothing can start during the outage";
  }
}

TEST(Broker, ImpossibleJobStillFailsFast) {
  EventQueue events;
  Federation fed(events);
  fed.add_site({.name = "Solo", .grid = "G", .processors = 128});
  CampaignConfig config;
  config.jobs.push_back(make_job(1, 4096, 1.0));  // larger than every machine
  Broker broker(fed, config);
  broker.submit_all();
  events.run();
  const CampaignResult r = broker.result();
  EXPECT_EQ(r.failed, 1u);
  EXPECT_DOUBLE_EQ(r.makespan_hours, 0.0);  // not parked for 100 backoffs
}

TEST(Broker, CheckpointCreditRerunsOnlyTheLostTail) {
  EventQueue events;
  Federation fed(events);
  fed.add_site({.name = "Solo", .grid = "G", .processors = 128});
  CampaignConfig config;
  config.jobs.push_back(make_job(1, 128, 10.0));
  config.checkpoint_interval_hours = 1.0;
  Broker broker(fed, config);
  broker.submit_all();
  events.at(4.5, [&] { fed.find("Solo")->fail_until(6.5); });
  events.run();
  ASSERT_TRUE(broker.done());
  const CampaignResult r = broker.result();
  ASSERT_EQ(r.completed, 1u);
  const Job& j = r.finished_jobs.front();
  EXPECT_EQ(j.requeues, 1);
  // First attempt burned 4.5 h, the checkpoint at 4 h is credited; the
  // re-run (starting the moment the outage lifts) covers only the 6 h tail.
  EXPECT_DOUBLE_EQ(j.end_time - j.start_time, 6.0);
  EXPECT_DOUBLE_EQ(j.end_time, 12.5);
  EXPECT_DOUBLE_EQ(j.consumed_cpu_hours, 128 * (4.5 + 6.0));
  EXPECT_DOUBLE_EQ(j.wasted_cpu_hours, 128 * 0.5);
  EXPECT_EQ(r.checkpoint_restarts, 1u);
  EXPECT_DOUBLE_EQ(r.credited_cpu_hours, 128 * 10.0);
  EXPECT_DOUBLE_EQ(r.wasted_cpu_hours, 128 * 0.5);
}

TEST(Broker, CheckpointCreditBeatsFullRestart) {
  auto run = [](double interval) {
    EventQueue events;
    Federation fed(events);
    fed.add_site({.name = "Solo", .grid = "G", .processors = 128});
    CampaignConfig config;
    config.jobs.push_back(make_job(1, 128, 10.0));
    config.checkpoint_interval_hours = interval;
    Broker broker(fed, config);
    broker.submit_all();
    events.at(4.5, [&] { fed.find("Solo")->fail_until(6.5); });
    events.run();
    return broker.result();
  };
  const CampaignResult ckpt = run(1.0);
  const CampaignResult full = run(0.0);
  EXPECT_LT(ckpt.wasted_cpu_hours, full.wasted_cpu_hours);
  EXPECT_LT(ckpt.total_cpu_hours, full.total_cpu_hours);
  EXPECT_LT(ckpt.makespan_hours, full.makespan_hours);
}

TEST(Broker, RoundRobinRotationUnshiftedByOutage) {
  EventQueue events;
  Federation fed(events);
  fed.add_site({.name = "A", .grid = "G", .processors = 128});
  fed.add_site({.name = "B", .grid = "G", .processors = 128});
  fed.add_site({.name = "C", .grid = "G", .processors = 128});
  Broker broker(fed, small_campaign(3, BrokerPolicy::RoundRobin));
  broker.submit_all();
  events.at(1.0, [&] { fed.find("C")->fail_until(100.0); });
  events.run();
  const CampaignResult r = broker.result();
  ASSERT_EQ(r.completed, 3u);
  auto find = [&](JobId id) -> const Job& {
    for (const auto& j : r.finished_jobs) {
      if (j.id == id) return j;
    }
    throw std::runtime_error("missing job");
  };
  EXPECT_EQ(find(1).site, "A");
  EXPECT_EQ(find(2).site, "B");
  // Job 3 died on C. The retry must restart the rotation at A — indexing
  // modulo the SHRUNKEN usable list {A, B} would skew it onto B.
  EXPECT_EQ(find(3).requeues, 1);
  EXPECT_EQ(find(3).site, "A");
}

TEST(Broker, CompletionFloorRecordsGracefulDegradation) {
  EventQueue events;
  Federation fed(events);
  fed.add_site({.name = "Solo", .grid = "G", .processors = 128});
  CampaignConfig config;
  for (JobId i = 1; i <= 4; ++i) config.jobs.push_back(make_job(i, 128, 8.0));
  config.jobs.push_back(make_job(5, 4096, 1.0));  // infeasible replica
  config.completion_floor = 0.8;
  Broker broker(fed, config);
  broker.submit_all();
  events.run();
  CampaignResult r = broker.result();
  EXPECT_EQ(r.completed, 4u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.shortfall(), 1u);
  EXPECT_TRUE(r.degraded());
  EXPECT_TRUE(r.meets_floor());  // 4 of 5 = exactly the floor
  r.completion_floor = 1.0;
  EXPECT_FALSE(r.meets_floor());
}

// --- fault injection ---------------------------------------------------------------------

TEST(FaultInjection, ArmedScheduleIsDeterministic) {
  auto schedule = [](std::uint64_t seed) {
    EventQueue events;
    Federation fed(events);
    build_spice_federation(fed);
    FaultConfig config;
    config.seed = seed;
    config.site_mtbf_hours = 50.0;
    config.mean_outage_hours = 3.0;
    config.horizon_hours = 200.0;
    FaultInjector injector(fed, config);
    injector.arm();
    return injector.outages();
  };
  const auto a = schedule(5);
  const auto b = schedule(5);
  ASSERT_GT(a.size(), 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].site, b[i].site);
    EXPECT_EQ(a[i].start_hours, b[i].start_hours);
    EXPECT_EQ(a[i].duration_hours, b[i].duration_hours);
  }
  const auto c = schedule(6);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = c[i].start_hours != a[i].start_hours;
  }
  EXPECT_TRUE(differs) << "different seeds must draw different schedules";
}

TEST(FaultInjection, RejectsBadConfigs) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  FaultConfig unknown;
  unknown.scheduled.push_back({"Nowhere", 1.0, 2.0});
  FaultInjector bad_site(fed, unknown);
  EXPECT_THROW(bad_site.arm(), PreconditionError);
  FaultConfig zero_duration;
  zero_duration.scheduled.push_back({"NCSA", 1.0, 0.0});
  FaultInjector bad_duration(fed, zero_duration);
  EXPECT_THROW(bad_duration.arm(), PreconditionError);
}

/// Campaign under a seeded fault load that includes a window in which EVERY
/// site is down simultaneously (the situation that used to turn jobs into
/// permanent Failed records at the broker).
CampaignResult run_faulted_campaign(std::uint64_t fault_seed, double checkpoint_interval) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  FaultConfig faults;
  faults.seed = fault_seed;
  faults.site_mtbf_hours = 60.0;
  faults.mean_outage_hours = 6.0;
  faults.horizon_hours = 300.0;
  for (const auto& site : fed.sites()) {
    faults.scheduled.push_back({site->name(), 4.0, 25.0});
  }
  FaultInjector injector(fed, faults);
  injector.arm();
  CampaignConfig config = small_campaign(16, BrokerPolicy::LeastBacklog);
  config.checkpoint_interval_hours = checkpoint_interval;
  config.max_requeues = 10;
  Broker broker(fed, config);
  broker.submit_all();
  events.run();
  EXPECT_TRUE(broker.done());
  return broker.result();
}

TEST(FaultInjection, EveryJobSurvivesAnAllSitesOutage) {
  const CampaignResult r = run_faulted_campaign(77, 1.0);
  EXPECT_EQ(r.completed, 16u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.shortfall(), 0u);
  EXPECT_GT(r.held_dispatches, 0u) << "the all-sites window must park jobs";
  EXPECT_GT(r.checkpoint_restarts, 0u);
  EXPECT_GT(r.wasted_cpu_hours, 0.0);
  EXPECT_GT(r.credited_cpu_hours, 0.0);
  EXPECT_LT(r.wasted_cpu_hours, r.total_cpu_hours);
}

TEST(FaultInjection, SameFaultSeedReproducesTheCampaignExactly) {
  const CampaignResult a = run_faulted_campaign(77, 1.0);
  const CampaignResult b = run_faulted_campaign(77, 1.0);
  EXPECT_EQ(a.makespan_hours, b.makespan_hours);
  EXPECT_EQ(a.total_cpu_hours, b.total_cpu_hours);
  EXPECT_EQ(a.credited_cpu_hours, b.credited_cpu_hours);
  EXPECT_EQ(a.wasted_cpu_hours, b.wasted_cpu_hours);
  EXPECT_EQ(a.held_dispatches, b.held_dispatches);
  EXPECT_EQ(a.checkpoint_restarts, b.checkpoint_restarts);
  ASSERT_EQ(a.finished_jobs.size(), b.finished_jobs.size());
  for (std::size_t i = 0; i < a.finished_jobs.size(); ++i) {
    const Job& x = a.finished_jobs[i];
    const Job& y = b.finished_jobs[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.site, y.site);
    EXPECT_EQ(x.state, y.state);
    EXPECT_EQ(x.requeues, y.requeues);
    EXPECT_EQ(x.start_time, y.start_time);
    EXPECT_EQ(x.end_time, y.end_time);
  }
}

TEST(FaultInjection, CheckpointCreditReducesWasteUnderSameFaults) {
  const CampaignResult ckpt = run_faulted_campaign(77, 1.0);
  const CampaignResult full = run_faulted_campaign(77, 0.0);
  EXPECT_LT(ckpt.wasted_cpu_hours, full.wasted_cpu_hours);
  EXPECT_LT(ckpt.total_cpu_hours, full.total_cpu_hours);
}

// --- co-scheduling ---------------------------------------------------------------------

TEST(CoSchedule, FindsImmediateWindowOnEmptyCalendars) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  CoScheduleRequest req;
  req.requirements = {{fed.find("NCSA"), 256, true}, {fed.find("Manchester"), 16, true}};
  req.duration_hours = 4.0;
  const auto outcome = find_common_window(req);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_DOUBLE_EQ(outcome.start, 0.0);
}

TEST(CoSchedule, LightpathRequirementExcludesSites) {
  // HPCx has no lightpath — the §V-C.2 finding.
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  CoScheduleRequest req;
  req.requirements = {{fed.find("HPCx"), 256, true}};
  const auto outcome = find_common_window(req);
  EXPECT_FALSE(outcome.feasible);
  EXPECT_NE(outcome.infeasible_reason.find("lightpath"), std::string::npos);
}

TEST(CoSchedule, SkipsOverExistingReservations) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  Site* sdsc = fed.find("SDSC");
  sdsc->add_reservation({0.0, 24.0, 512, "other-project"});
  CoScheduleRequest req;
  req.requirements = {{sdsc, 256, false}};
  req.duration_hours = 4.0;
  const auto outcome = find_common_window(req);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_DOUBLE_EQ(outcome.start, 24.0);
}

TEST(CoSchedule, ReserveBooksAllSites) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  CoScheduleRequest req;
  req.requirements = {{fed.find("NCSA"), 256, true}, {fed.find("Manchester"), 16, true}};
  const auto outcome = reserve_common_window(req, "spice");
  ASSERT_TRUE(outcome.feasible);
  EXPECT_EQ(fed.find("NCSA")->reservations().size(), 1u);
  EXPECT_EQ(fed.find("Manchester")->reservations().size(), 1u);
  EXPECT_EQ(fed.find("NCSA")->reservations()[0].holder, "spice");
}

// --- coordination workflow model -----------------------------------------------------------

TEST(Coordination, ManualAnecdoteScale) {
  // The paper's anecdote: ~a dozen emails and three errors can happen for
  // one reservation. The model must place that within its support.
  bool saw_heavy_case = false;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto o = simulate_manual_coordination(1, ManualProcessParams{}, seed);
    if (o.emails >= 12 && o.errors >= 3) saw_heavy_case = true;
  }
  EXPECT_TRUE(saw_heavy_case);
}

TEST(Coordination, ManualSuccessDecaysWithSiteCount) {
  const auto s1 = summarize_manual(1, 400, ManualProcessParams{}, 5);
  const auto s4 = summarize_manual(4, 400, ManualProcessParams{}, 5);
  const auto s8 = summarize_manual(8, 400, ManualProcessParams{}, 5);
  EXPECT_GT(s1.success_rate, s4.success_rate);
  EXPECT_GT(s4.success_rate, s8.success_rate);
}

TEST(Coordination, AutomatedScalesWhereManualDoesNot) {
  const auto manual = summarize_manual(6, 400, ManualProcessParams{}, 7);
  const auto automated = summarize_automated(6, 400, AutomatedProcessParams{}, 7);
  EXPECT_GT(automated.success_rate, manual.success_rate);
  EXPECT_GT(automated.success_rate, 0.8);
  EXPECT_LT(automated.mean_elapsed_hours, 2.0);
  EXPECT_DOUBLE_EQ(automated.mean_emails, 0.0);
}

// --- DAG workflows -----------------------------------------------------------------------

TEST(Workflow, LinearChainRunsInOrder) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  WorkflowEngine workflow(fed);
  const auto a = workflow.add_node(make_job(1, 128, 2.0));
  const auto b = workflow.add_node(make_job(2, 128, 2.0), {a});
  const auto c = workflow.add_node(make_job(3, 128, 2.0), {b});
  workflow.start();
  events.run();
  ASSERT_TRUE(workflow.done());
  const WorkflowResult r = workflow.result();
  EXPECT_EQ(r.completed, 3u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.critical_path_nodes, 3u);
  // A strict chain cannot finish faster than the sum of runtimes (speed ≤ 1.1).
  EXPECT_GE(r.makespan_hours, 3 * 2.0 / 1.1 - 1e-9);
  EXPECT_EQ(r.states.at(c), NodeState::Completed);
}

TEST(Workflow, DiamondRunsFanOutInParallel) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  WorkflowEngine workflow(fed);
  const auto src = workflow.add_node(make_job(1, 128, 1.0));
  const auto left = workflow.add_node(make_job(2, 128, 4.0), {src});
  const auto right = workflow.add_node(make_job(3, 128, 4.0), {src});
  workflow.add_node(make_job(4, 128, 1.0), {left, right});
  workflow.start();
  events.run();
  const WorkflowResult r = workflow.result();
  EXPECT_EQ(r.completed, 4u);
  EXPECT_EQ(r.critical_path_nodes, 3u);
  // Parallel middle layer: makespan well below the serial sum of 10 h.
  EXPECT_LT(r.makespan_hours, 9.0);
}

TEST(Workflow, FailurePropagatesToDependents) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  WorkflowEngine workflow(fed);
  const auto ok = workflow.add_node(make_job(1, 128, 1.0));
  // An impossible job: bigger than every machine → fails after retries.
  const auto bad = workflow.add_node(make_job(2, 1 << 20, 1.0));
  const auto doomed = workflow.add_node(make_job(3, 128, 1.0), {bad});
  const auto fine = workflow.add_node(make_job(4, 128, 1.0), {ok});
  workflow.start();
  events.run();
  const WorkflowResult r = workflow.result();
  EXPECT_EQ(r.states.at(ok), NodeState::Completed);
  EXPECT_EQ(r.states.at(bad), NodeState::Failed);
  EXPECT_EQ(r.states.at(doomed), NodeState::Failed);
  EXPECT_EQ(r.states.at(fine), NodeState::Completed);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.failed, 2u);
}

TEST(Workflow, RejectsBadConstruction) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  WorkflowEngine workflow(fed);
  EXPECT_THROW(workflow.add_node(make_job(1, 128, 1.0), {5}), PreconditionError);
  EXPECT_THROW(workflow.start(), PreconditionError);  // empty
}

TEST(Workflow, SpicePhaseChain) {
  // The pipeline's shape: preprocessing fan-out → production fan-out →
  // one analysis job.
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  WorkflowEngine workflow(fed);
  std::vector<NodeId> preprocessing;
  JobId next = 1;
  for (int i = 0; i < 4; ++i) {
    preprocessing.push_back(workflow.add_node(make_job(next++, 128, 2.0)));
  }
  std::vector<NodeId> production;
  for (int i = 0; i < 12; ++i) {
    production.push_back(workflow.add_node(make_job(next++, 128, 6.0), preprocessing));
  }
  workflow.add_node(make_job(next++, 32, 1.0), production);
  workflow.start();
  events.run();
  const WorkflowResult r = workflow.result();
  EXPECT_EQ(r.completed, 17u);
  EXPECT_EQ(r.critical_path_nodes, 3u);
}

// --- campaign metrics --------------------------------------------------------------------

std::vector<Job> metric_jobs() {
  std::vector<Job> jobs;
  auto add = [&jobs](JobId id, const std::string& site, int procs, double submit,
                     double start, double end, JobState state) {
    Job j;
    j.id = id;
    j.site = site;
    j.processors = procs;
    j.submit_time = submit;
    j.start_time = start;
    j.end_time = end;
    j.state = state;
    jobs.push_back(j);
  };
  add(1, "NCSA", 128, 0.0, 1.0, 5.0, JobState::Completed);   // wait 1
  add(2, "NCSA", 128, 0.0, 3.0, 7.0, JobState::Completed);   // wait 3
  add(3, "SDSC", 256, 0.0, 2.0, 4.0, JobState::Completed);   // wait 2
  add(4, "SDSC", 256, 0.0, 10.0, 20.0, JobState::Failed);    // ignored
  return jobs;
}

TEST(Metrics, WaitStatistics) {
  const auto stats = wait_statistics(metric_jobs());
  EXPECT_EQ(stats.jobs, 3u);
  EXPECT_DOUBLE_EQ(stats.mean_hours, 2.0);
  EXPECT_DOUBLE_EQ(stats.median_hours, 2.0);
  EXPECT_DOUBLE_EQ(stats.max_hours, 3.0);
}

TEST(Metrics, WaitStatisticsEmpty) {
  const auto stats = wait_statistics({});
  EXPECT_EQ(stats.jobs, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_hours, 0.0);
}

TEST(Metrics, SiteShares) {
  const auto shares = site_shares(metric_jobs());
  ASSERT_EQ(shares.size(), 2u);  // NCSA + SDSC (failed job excluded)
  const auto& ncsa = shares[0].site == "NCSA" ? shares[0] : shares[1];
  EXPECT_EQ(ncsa.jobs, 2u);
  EXPECT_DOUBLE_EQ(ncsa.cpu_hours, 128 * 4.0 + 128 * 4.0);
  EXPECT_DOUBLE_EQ(ncsa.mean_wait_hours, 2.0);
}

TEST(Metrics, ConcurrencyAndPeak) {
  const auto jobs = metric_jobs();
  EXPECT_EQ(processors_in_use(jobs, 0.5), 0);
  EXPECT_EQ(processors_in_use(jobs, 2.5), 128 + 256);  // jobs 1 and 3
  EXPECT_EQ(processors_in_use(jobs, 3.5), 128 + 128 + 256);
  EXPECT_EQ(processors_in_use(jobs, 6.0), 128);
  EXPECT_EQ(peak_processors(jobs, 500), 512);
  const auto timeline = concurrency_timeline(jobs, 10);
  ASSERT_EQ(timeline.size(), 10u);
  EXPECT_DOUBLE_EQ(timeline.front().time_hours, 0.0);
  EXPECT_DOUBLE_EQ(timeline.back().time_hours, 7.0);
}

TEST(Metrics, CpuAccountingSeparatesCreditFromWaste) {
  std::vector<Job> jobs;
  Job restarted;  // survived one outage, resumed from a 4 h checkpoint
  restarted.id = 1;
  restarted.processors = 128;
  restarted.state = JobState::Completed;
  restarted.requeues = 1;
  restarted.start_time = 6.5;
  restarted.end_time = 12.5;
  restarted.consumed_cpu_hours = 128 * 10.5;
  restarted.wasted_cpu_hours = 128 * 0.5;
  jobs.push_back(restarted);
  Job clean;
  clean.id = 2;
  clean.processors = 64;
  clean.state = JobState::Completed;
  clean.start_time = 0.0;
  clean.end_time = 2.0;
  clean.consumed_cpu_hours = 64 * 2.0;
  jobs.push_back(clean);
  Job dead;  // permanent failure: every burned hour is waste
  dead.id = 3;
  dead.processors = 32;
  dead.state = JobState::Failed;
  dead.consumed_cpu_hours = 50.0;
  jobs.push_back(dead);

  const CpuAccounting acc = cpu_accounting(jobs);
  EXPECT_DOUBLE_EQ(acc.consumed_cpu_hours, 128 * 10.5 + 64 * 2.0 + 50.0);
  EXPECT_DOUBLE_EQ(acc.credited_cpu_hours, 128 * 10.0 + 64 * 2.0);
  EXPECT_DOUBLE_EQ(acc.wasted_cpu_hours, 128 * 0.5 + 50.0);
  EXPECT_EQ(acc.restarted_jobs, 1u);
  EXPECT_EQ(acc.checkpointed_restarts, 1u);
  EXPECT_NEAR(acc.efficiency(),
              (128 * 10.0 + 64 * 2.0) / (128 * 10.5 + 64 * 2.0 + 50.0), 1e-12);
}

TEST(Metrics, RealCampaignProducesSensibleMetrics) {
  EventQueue events;
  Federation fed(events);
  build_spice_federation(fed);
  Broker broker(fed, small_campaign(20, BrokerPolicy::LeastBacklog));
  broker.submit_all();
  events.run();
  const CampaignResult r = broker.result();
  const auto stats = wait_statistics(r.finished_jobs);
  EXPECT_EQ(stats.jobs, 20u);
  EXPECT_GE(stats.p95_hours, stats.median_hours);
  EXPECT_GT(peak_processors(r.finished_jobs), 128);
}

TEST(Coordination, ManualEmailsGrowWithSites) {
  const auto s2 = summarize_manual(2, 300, ManualProcessParams{}, 9);
  const auto s6 = summarize_manual(6, 300, ManualProcessParams{}, 9);
  EXPECT_GT(s6.mean_emails, s2.mean_emails * 2.0);
}

}  // namespace
