#pragma once
// Discrete-event simulation core for the grid substrate.
//
// Time unit: hours (the natural scale of batch queues and reservations).
// Events at equal times fire in scheduling order (a monotone sequence
// number breaks ties), which keeps every grid simulation deterministic.
//
// The queue is an indexed two-level calendar/bucket queue (Brown-style):
// handlers live in a slab of stable slots, bucket entries carry (time,
// seq, slot, generation), and the token returned by at()/after() cancels
// a pending event in O(1) — the handler is destroyed immediately instead
// of firing as a no-op. Inserts and pops are O(1) amortized at any
// live-event count, which is what lets million-job campaigns run at
// O(active) cost. tests/test_grid.cpp checks it differentially against an
// ordered-map reference queue.

#include <cstdint>
#include <functional>
#include <vector>

namespace spice::obs {
class Tracer;
}

namespace spice::grid {

/// Handle to a scheduled event: (slot, generation) packed into 64 bits.
/// kInvalidToken never names a live event, so it is safe to cancel blindly.
using EventToken = std::uint64_t;
inline constexpr EventToken kInvalidToken = 0;

/// Interception seam for enumerable nondeterminism. Components with a
/// bounded random choice (fault-injector draws, backoff jitter, the
/// RoundRobin start offset) route it through an installed oracle, which
/// returns an index in [0, n). Production code leaves oracles unset and
/// keeps its seeded RNG draws; the grid/mc explorer installs one and
/// enumerates every branch. `tag` names the choice point for replay
/// diagnostics and must be a string with static storage duration.
class ChoiceOracle {
 public:
  virtual ~ChoiceOracle() = default;
  virtual std::size_t choose(const char* tag, std::size_t n) = 0;
};

/// Same-timestamp scheduling seam. Events at equal times normally fire in
/// scheduling (seq) order; with a hook installed, step() reports each tie
/// group — all live events sharing the earliest pending timestamp — and
/// fires the member the hook picks. Index 0 is the seq-order head, so a
/// hook returning 0 reproduces the default schedule exactly.
class ScheduleHook {
 public:
  virtual ~ScheduleHook() = default;
  virtual std::size_t pick_tie(double time, std::size_t group_size) = 0;
};

class EventQueue {
 public:
  using Handler = std::function<void()>;

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Attach a tracer recording the VIRTUAL timeline: sites and the broker
  /// emit spans with ts = now() × obs::kTraceUsPerHour, so one simulated
  /// hour renders as one hour in Perfetto. Not owned; nullptr detaches.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Install a same-timestamp permutation hook (nullptr detaches). Not
  /// owned. With no hook the tie-group machinery is never touched and
  /// step() keeps its plain O(1) pop.
  void set_schedule_hook(ScheduleHook* hook) { hook_ = hook; }
  [[nodiscard]] ScheduleHook* schedule_hook() const { return hook_; }

  /// Deterministic digest of the pending-event set: now() plus the sorted
  /// multiset of live event timestamps. Sequence numbers and slot indices
  /// are deliberately excluded — they differ between interleavings that
  /// reach otherwise identical states, which would defeat the grid/mc
  /// explorer's stateful-hash pruning. What a pending event *does* is
  /// covered by the JobTable/Site fingerprints of the surrounding world.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Schedule `handler` at absolute time `t` (hours). Must not be in the
  /// past relative to now(). The returned token may be ignored, or kept to
  /// cancel the event before it fires.
  EventToken at(double t, Handler handler);

  /// Schedule after a delay from now().
  EventToken after(double delay, Handler handler) {
    return at(now_ + delay, std::move(handler));
  }

  /// Remove a pending event: its handler is destroyed now and will never
  /// run. Returns false (harmlessly) when the token is invalid, already
  /// fired, or already cancelled.
  bool cancel(EventToken token);

  /// True while the token's event is scheduled and not yet fired/cancelled.
  [[nodiscard]] bool pending(EventToken token) const;

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Live (scheduled, not yet fired or cancelled) events.
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

  /// Pop and run the next event; returns false when the queue is empty.
  bool step();

  /// Run until the queue empties or `t_end` passes (events beyond t_end
  /// stay queued; now() advances to exactly t_end when it stops early).
  void run_until(double t_end);

  /// Run everything.
  void run();

 private:
  /// Queue entry: the (time, seq) priority plus the slab slot holding the
  /// handler. `gen` detects cancellation — a stale entry whose generation
  /// no longer matches its slot is skipped for free during pops.
  struct Entry {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Slot {
    Handler handler;
    std::uint32_t gen = 1;  ///< bumped on fire/cancel; entry match ⇒ live
  };

  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slab_[e.slot].gen == e.gen;
  }

  std::uint32_t alloc_slot(Handler handler);
  void free_slot(std::uint32_t slot);
  void insert(const Entry& e);
  void insert_calendar(const Entry& e);
  /// Position cursors on the next live entry; false when the queue is
  /// empty. Mutates lazily (skips dead entries, sorts arrived buckets,
  /// rebuilds exhausted epochs) but never changes fire order.
  bool advance();
  /// Hook path: collect the live entries tied at the earliest pending
  /// timestamp (seq order) and return the one the hook picks. The chosen
  /// entry is NOT removed from its container — the caller frees its slot,
  /// which bumps the generation, and the stale container entry is skipped
  /// for free later exactly like a cancelled event.
  [[nodiscard]] Entry choose_tied_entry();
  /// Rebuild buckets around the pending entries (new epoch start, bucket
  /// count and width chosen from the live distribution).
  void rebuild(double from_time);
  void collect_live(std::vector<Entry>& out);
  [[nodiscard]] double pick_width(const std::vector<Entry>& live) const;

  obs::Tracer* tracer_ = nullptr;
  ScheduleHook* hook_ = nullptr;
  std::vector<Entry> tie_scratch_;  ///< choose_tied_entry scratch
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;

  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_slots_;

  // One epoch of buckets [epoch_, epoch_ + N·width_),
  // entries beyond it wait unsorted in overflow_ until an epoch rebuild
  // reaches them. The current bucket is kept sorted (same-time FIFO
  // appends are O(1) at its back); later buckets sort on arrival.
  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> overflow_;
  std::size_t cur_bucket_ = 0;
  std::size_t bucket_pos_ = 0;
  double epoch_ = 0.0;
  double width_ = 1.0;
};

}  // namespace spice::grid
