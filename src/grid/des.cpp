#include "grid/des.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace spice::grid {

namespace {

constexpr std::size_t kMinBuckets = 64;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 21;

EventToken pack_token(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(slot) + 1) << 32 | gen;
}

bool unpack_token(EventToken token, std::uint32_t& slot, std::uint32_t& gen) {
  if (token == kInvalidToken) return false;
  slot = static_cast<std::uint32_t>((token >> 32) - 1);
  gen = static_cast<std::uint32_t>(token & 0xffffffffu);
  return true;
}

}  // namespace

EventQueue::EventQueue() : buckets_(kMinBuckets) {}

std::uint32_t EventQueue::alloc_slot(Handler handler) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  slab_[slot].handler = std::move(handler);
  return slot;
}

void EventQueue::free_slot(std::uint32_t slot) {
  slab_[slot].handler = nullptr;  // destroy captured state now
  ++slab_[slot].gen;
  free_slots_.push_back(slot);
  SPICE_ENSURE(live_ > 0, "event accounting underflow");
  --live_;
}

EventToken EventQueue::at(double t, Handler handler) {
  SPICE_REQUIRE(t >= now_, "cannot schedule an event in the past");
  SPICE_REQUIRE(handler != nullptr, "null event handler");
  const std::uint32_t slot = alloc_slot(std::move(handler));
  const Entry e{t, next_seq_++, slot, slab_[slot].gen};
  ++live_;
  insert(e);
  return pack_token(slot, e.gen);
}

bool EventQueue::cancel(EventToken token) {
  std::uint32_t slot;
  std::uint32_t gen;
  if (!unpack_token(token, slot, gen)) return false;
  if (slot >= slab_.size() || slab_[slot].gen != gen) return false;
  // The stale bucket entry keeps (time, seq, slot, old gen) and is
  // skipped for free when its position is reached; the handler dies here.
  free_slot(slot);
  return true;
}

bool EventQueue::pending(EventToken token) const {
  std::uint32_t slot;
  std::uint32_t gen;
  if (!unpack_token(token, slot, gen)) return false;
  return slot < slab_.size() && slab_[slot].gen == gen &&
         slab_[slot].handler != nullptr;
}

void EventQueue::insert(const Entry& e) {
  // Occupancy far from the bucket count ⇒ re-bucket around the live set.
  const std::size_t nb = buckets_.size();
  if ((live_ > nb * 4 && nb < kMaxBuckets) ||
      (live_ * 8 < nb && nb > kMinBuckets)) {
    rebuild(now_);
  }
  insert_calendar(e);
}

void EventQueue::insert_calendar(const Entry& e) {
  const double offset = (e.time - epoch_) / width_;
  if (offset >= static_cast<double>(buckets_.size())) {
    overflow_.push_back(e);
    return;
  }
  std::size_t idx = offset > 0.0 ? static_cast<std::size_t>(offset) : 0;
  // Exhausted buckets stay behind the cursor; anything mapping there
  // (e.time ≥ now_ always holds) belongs in the current bucket.
  if (idx <= cur_bucket_) {
    auto& bucket = buckets_[cur_bucket_];
    // Current bucket is kept sorted past the consumed prefix; same-time
    // FIFO appends land at the back, so the schedule-at-now case stays
    // O(1). Never insert before the cursor — a skipped (cancelled) entry
    // there may carry a later timestamp.
    const auto pos = std::lower_bound(
        bucket.begin() + static_cast<std::ptrdiff_t>(bucket_pos_), bucket.end(), e,
        earlier);
    bucket.insert(pos, e);
    return;
  }
  buckets_[idx].push_back(e);  // sorted when the cursor arrives
}

void EventQueue::collect_live(std::vector<Entry>& out) {
  for (auto& bucket : buckets_) {
    for (const Entry& e : bucket) {
      if (entry_live(e)) out.push_back(e);
    }
    bucket.clear();
  }
  for (const Entry& e : overflow_) {
    if (entry_live(e)) out.push_back(e);
  }
  overflow_.clear();
}

double EventQueue::pick_width(const std::vector<Entry>& live) const {
  if (live.size() < 2) return 1.0;
  // Sample event times spread across the whole live set (ceil-spaced so
  // the last sample lands near the back — front-only sampling once picked
  // a width from an equal-timestamp prefix while the tail spanned hours),
  // then set the bucket width to twice the median inter-event gap, so a
  // bucket holds a couple of events on average.
  std::vector<double> times;
  const std::size_t samples = std::min<std::size_t>(live.size(), 64);
  times.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    times.push_back(live[(i * live.size()) / samples].time);
  }
  std::sort(times.begin(), times.end());
  // Minimum width relative to the timestamp magnitude: far from t = 0 a
  // double's resolution is |t|·2⁻⁵², and a width below a few ulps maps
  // adjacent representable timestamps to buckets that are many indices
  // apart (or, after `(t − epoch)/width`, straight into overflow), so the
  // queue degenerates into a rebuild-per-event crawl.
  const double scale = std::max(std::abs(times.front()), std::abs(times.back()));
  const double min_width = std::max(1e-12, scale * 1e-14);
  std::vector<double> gaps;
  gaps.reserve(times.size());
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double gap = times[i] - times[i - 1];
    if (gap > 0.0) gaps.push_back(gap);
  }
  // All sampled gaps zero (every sampled event shares one timestamp):
  // fall back to a magnitude-relative width instead of the old fixed 1.0,
  // which for a cluster sitting far from the epoch mapped the entire set
  // into overflow and re-rebuilt on every insert.
  if (gaps.empty()) return std::max(1.0, min_width);
  std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2, gaps.end());
  const double width = 2.0 * gaps[gaps.size() / 2];
  return std::isfinite(width) && width > min_width ? width : min_width;
}

void EventQueue::rebuild(double from_time) {
  std::vector<Entry> live;
  live.reserve(live_);
  collect_live(live);
  std::size_t nb = kMinBuckets;
  while (nb < live.size() && nb < kMaxBuckets) nb <<= 1;
  buckets_.assign(nb, {});
  cur_bucket_ = 0;
  bucket_pos_ = 0;
  epoch_ = from_time;
  width_ = pick_width(live);
  for (const Entry& e : live) {
    const double offset = (e.time - epoch_) / width_;
    if (offset >= static_cast<double>(nb)) {
      overflow_.push_back(e);
    } else {
      buckets_[offset > 0.0 ? static_cast<std::size_t>(offset) : 0].push_back(e);
    }
  }
  // The cursor starts inside bucket 0, which must already be sorted (later
  // buckets sort when the cursor arrives).
  std::sort(buckets_[0].begin(), buckets_[0].end(), earlier);
}

bool EventQueue::advance() {
  for (;;) {
    auto& bucket = buckets_[cur_bucket_];
    while (bucket_pos_ < bucket.size()) {
      if (entry_live(bucket[bucket_pos_])) return true;
      ++bucket_pos_;  // cancelled entry: skip for free
    }
    bucket.clear();
    bucket_pos_ = 0;
    ++cur_bucket_;
    if (cur_bucket_ < buckets_.size()) {
      std::sort(buckets_[cur_bucket_].begin(), buckets_[cur_bucket_].end(), earlier);
      continue;
    }
    // Epoch exhausted: everything pending (if anything) sits in overflow.
    if (live_ == 0) {
      overflow_.clear();
      cur_bucket_ = 0;
      epoch_ = now_;
      return false;
    }
    double next = overflow_.front().time;
    for (const Entry& e : overflow_) next = std::min(next, e.time);
    rebuild(std::max(next, now_));
  }
}

EventQueue::Entry EventQueue::choose_tied_entry() {
  tie_scratch_.clear();
  // The current bucket is sorted past the cursor, so the tie group is the
  // contiguous live run sharing the front timestamp. Equal-time entries
  // never hide in later buckets: a bucket behind the cursor is already
  // cleared, and inserts mapping at-or-behind it land in the current
  // bucket.
  const auto& bucket = buckets_[cur_bucket_];
  const double t = bucket[bucket_pos_].time;
  for (std::size_t i = bucket_pos_; i < bucket.size(); ++i) {
    const Entry& e = bucket[i];
    if (e.time != t) break;
    if (entry_live(e)) tie_scratch_.push_back(e);
  }
  std::size_t k = 0;
  if (tie_scratch_.size() > 1) {
    k = hook_->pick_tie(tie_scratch_.front().time, tie_scratch_.size());
    SPICE_ENSURE(k < tie_scratch_.size(), "schedule hook picked outside the tie group");
  }
  return tie_scratch_[k];
}

std::uint64_t EventQueue::fingerprint() const {
  std::vector<double> times;
  times.reserve(live_);
  const auto visit = [&](const Entry& e) {
    if (entry_live(e)) times.push_back(e.time);
  };
  for (const auto& bucket : buckets_) {
    for (const Entry& e : bucket) visit(e);
  }
  for (const Entry& e : overflow_) visit(e);
  std::sort(times.begin(), times.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(std::bit_cast<std::uint64_t>(now_));
  mix(times.size());
  for (const double t : times) mix(std::bit_cast<std::uint64_t>(t));
  return h;
}

bool EventQueue::step() {
  if (!advance()) return false;
  Entry e;
  if (hook_ != nullptr) {
    // Tie-aware path: the chosen entry stays in its container; free_slot
    // below bumps its generation, so the container copy dies like a
    // cancelled event when its position is reached.
    e = choose_tied_entry();
  } else {
    e = buckets_[cur_bucket_][bucket_pos_];
    ++bucket_pos_;
  }
  now_ = e.time;
  ++processed_;
  {
    static obs::Counter& dispatched = obs::metrics().counter("grid.des.events");
    dispatched.add(1);
  }
  // Move the handler out of the slab and release the slot before running,
  // so the dispatch itself never copies the closure and the handler may
  // freely schedule (or cancel) other events.
  Handler handler = std::move(slab_[e.slot].handler);
  free_slot(e.slot);
  handler();
  return true;
}

void EventQueue::run_until(double t_end) {
  while (advance()) {
    if (buckets_[cur_bucket_][bucket_pos_].time > t_end) break;
    step();
  }
  if (now_ < t_end) now_ = t_end;
}

void EventQueue::run() {
  while (step()) {
  }
}

}  // namespace spice::grid
