#include "grid/des.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace spice::grid {

namespace {

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

EventQueue::EventQueue() = default;

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
  push(e);
  return pack_token(slot, e.gen);
}

bool EventQueue::cancel(EventToken token) {
  std::uint32_t slot;
  std::uint32_t gen;
  if (!unpack_token(token, slot, gen)) return false;
  if (slot >= slab_.size() || slab_[slot].gen != gen) return false;
  // The stale heap entry keeps (time, seq, slot, old gen) and is dropped
  // when it reaches the top; the handler dies here.
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

void EventQueue::push(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

EventQueue::Entry EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const Entry e = heap_.back();
  heap_.pop_back();
  return e;
}

bool EventQueue::advance() {
  while (!heap_.empty() && !entry_live(heap_.front())) pop();
  return !heap_.empty();
}

EventQueue::Entry EventQueue::choose_tied_entry() {
  tie_scratch_.clear();
  const double t = heap_.front().time;
  while (!heap_.empty() && heap_.front().time == t) {
    const Entry e = pop();
    if (entry_live(e)) tie_scratch_.push_back(e);
  }
  std::size_t k = 0;
  if (tie_scratch_.size() > 1) {
    k = hook_->pick_tie(t, tie_scratch_.size());
    SPICE_ENSURE(k < tie_scratch_.size(), "schedule hook picked outside the tie group");
  }
  for (std::size_t i = 0; i < tie_scratch_.size(); ++i) {
    if (i != k) push(tie_scratch_[i]);
  }
  return tie_scratch_[k];
}

std::uint64_t EventQueue::fingerprint() const {
  std::vector<double> times;
  times.reserve(live_);
  for (const Entry& e : heap_) {
    if (entry_live(e)) times.push_back(e.time);
  }
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
  const Entry e = hook_ != nullptr ? choose_tied_entry() : pop();
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
    if (heap_.front().time > t_end) break;
    step();
  }
  if (now_ < t_end) now_ = t_end;
}

void EventQueue::run() {
  while (step()) {
  }
}

}  // namespace spice::grid
