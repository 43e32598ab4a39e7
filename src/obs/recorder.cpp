#include "obs/recorder.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace spice::obs {

namespace detail {
// The recorder is the always-on tier: unlike metrics it defaults
// to enabled, so the last seconds of any run are post-mortem-recoverable.
std::atomic<bool> g_recorder_enabled{kCompiledIn};
}  // namespace detail

void set_recorder_enabled(bool on) {
  detail::g_recorder_enabled.store(kCompiledIn && on, std::memory_order_relaxed);
}

FlightRecorder::FlightRecorder(std::size_t capacity_per_thread)
    : capacity_(std::max<std::size_t>(capacity_per_thread, 16)) {}

FlightRecorder::~FlightRecorder() {
  for (auto& slot : rings_) delete slot.load(std::memory_order_acquire);
}

FlightRecorder::Ring* FlightRecorder::ring_for_thread() {
  const std::uint32_t index = thread_index();
  if (index >= kMaxThreads) return nullptr;
  Ring* ring = rings_[index].load(std::memory_order_acquire);
  if (ring != nullptr) return ring;
  // First event from this thread: allocate its ring. The CAS loser (only
  // possible if thread ids were ever reused concurrently, which
  // thread_index() precludes) frees its attempt.
  auto fresh = std::make_unique<Ring>();
  fresh->thread = index;
  fresh->words = std::make_unique<std::atomic<std::uint64_t>[]>(capacity_ * kWordsPerEvent);
  Ring* expected = nullptr;
  if (rings_[index].compare_exchange_strong(expected, fresh.get(),
                                            std::memory_order_acq_rel)) {
    return fresh.release();
  }
  return expected;
}

std::vector<RecorderEvent> FlightRecorder::drain() const {
  std::vector<RecorderEvent> out;
  std::vector<std::uint64_t> words;
  for (std::uint32_t t = 0; t < kMaxThreads; ++t) {
    const Ring* ring = rings_[t].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t resident = std::min<std::uint64_t>(head, capacity_);
    const std::uint64_t first = head - resident;
    words.assign(resident * kWordsPerEvent, 0);
    for (std::uint64_t i = 0; i < resident * kWordsPerEvent; ++i) {
      const std::uint64_t base = (first + i / kWordsPerEvent) % capacity_;
      words[i] = ring->words[base * kWordsPerEvent + i % kWordsPerEvent].load(
          std::memory_order_relaxed);
    }
    // Writers may have lapped part of the copy: every event with
    // index ≤ head_after − capacity sits in a slot that has been (or is
    // being) rewritten, so only strictly younger events are kept.
    const std::uint64_t head_after = ring->head.load(std::memory_order_acquire);
    const std::uint64_t safe_first =
        head_after > capacity_ ? head_after - capacity_ + 1 : 0;
    for (std::uint64_t i = std::max(first, safe_first); i < head; ++i) {
      const std::uint64_t* w = words.data() + (i - first) * kWordsPerEvent;
      RecorderEvent event;
      event.name = reinterpret_cast<const char*>(w[0]);
      event.ts_us = double_of(w[1]);
      event.ctx = TraceContext{w[2]};
      event.value = double_of(w[3]);
      event.kind = static_cast<RecordKind>(w[4] & 0xFFu);
      event.track = static_cast<std::uint32_t>(w[4] >> 32);
      out.push_back(event);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RecorderEvent& a, const RecorderEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

std::uint64_t FlightRecorder::recorded_count() const {
  std::uint64_t total = 0;
  for (const auto& slot : rings_) {
    const Ring* ring = slot.load(std::memory_order_acquire);
    if (ring != nullptr) total += ring->head.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t FlightRecorder::overwritten_count() const {
  std::uint64_t total = 0;
  for (const auto& slot : rings_) {
    const Ring* ring = slot.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > capacity_) total += head - capacity_;
  }
  return total;
}

std::size_t FlightRecorder::active_threads() const {
  std::size_t n = 0;
  for (const auto& slot : rings_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++n;
  }
  return n;
}

std::uint32_t FlightRecorder::new_track(std::string name) {
  std::lock_guard lock(tracks_mutex_);
  track_names_.push_back(std::move(name));
  return static_cast<std::uint32_t>(kMaxThreads + track_names_.size() - 1);
}

std::vector<std::pair<std::uint32_t, std::string>> FlightRecorder::track_names() const {
  std::lock_guard lock(tracks_mutex_);
  std::vector<std::pair<std::uint32_t, std::string>> out;
  out.reserve(track_names_.size());
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    out.emplace_back(static_cast<std::uint32_t>(kMaxThreads + i), track_names_[i]);
  }
  return out;
}

FlightRecorder& flight_recorder() {
  static FlightRecorder recorder;
  return recorder;
}

namespace {

char phase_of(RecordKind kind) {
  switch (kind) {
    case RecordKind::Span: return 'X';
    case RecordKind::Count: return 'C';
    case RecordKind::Begin: return 'b';
    case RecordKind::End: return 'e';
    case RecordKind::Instant:
    case RecordKind::Command:
    case RecordKind::Mark: return 'i';
  }
  return 'i';
}

}  // namespace

void write_chrome_trace(std::ostream& os, std::span<const RecorderEvent> events,
                        const FlightRecorder& source, std::string_view process_name) {
  // Enough digits that µs timestamps hours into a run (or a simulated
  // campaign) keep their sub-µs part.
  const std::streamsize precision = os.precision(15);
  os << "{\"traceEvents\":[\n";
  os << R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":)"
     << json_quote(process_name) << "}}";
  // Track rows: every named track, then a "thread N" row for each
  // thread-default track the events use.
  const auto named = source.track_names();
  for (const auto& [track, name] : named) {
    os << ",\n" << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << track
       << R"(,"args":{"name":)" << json_quote(name) << "}}";
  }
  std::vector<std::uint32_t> threads;
  for (const RecorderEvent& e : events) {
    if (e.track < FlightRecorder::kMaxThreads) threads.push_back(e.track);
  }
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  for (const std::uint32_t thread : threads) {
    os << ",\n" << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << thread
       << R"(,"args":{"name":"thread )" << thread << "\"}}";
  }
  for (const RecorderEvent& e : events) {
    const std::string_view name = e.name != nullptr ? e.name : "?";
    const char phase = phase_of(e.kind);
    os << ",\n{\"name\":" << json_quote(name)
       << ",\"cat\":" << json_quote(name.substr(0, name.find('.'))) << ",\"ph\":\"" << phase
       << "\",\"ts\":" << e.ts_us << ",\"pid\":1,\"tid\":" << e.track;
    if (phase == 'X') os << ",\"dur\":" << e.value;
    if (phase == 'b' || phase == 'e') {
      os << ",\"id\":" << json_quote(e.ctx.to_string() + "#" + std::to_string(
                                           static_cast<std::int64_t>(e.value)));
    }
    if (phase == 'i') os << ",\"s\":\"t\"";
    // A counter's args are its plotted series, so it carries no ctx.
    os << ",\"args\":{";
    if (phase != 'X') os << "\"value\":" << e.value << (phase != 'C' ? "," : "");
    if (phase != 'C') os << "\"ctx\":" << json_quote(e.ctx.to_string());
    os << "}}";
  }
  if (const std::uint64_t lost = source.overwritten_count(); lost > 0) {
    // Rings keep the newest events: the marker tells a reader that the
    // timeline's head fell off, and how much of it.
    os << ",\n" << R"({"name":"recorder ring wrapped: )" << lost
       << R"( events overwritten","cat":"obs","ph":"i","s":"g","ts":)"
       << (events.empty() ? 0.0 : events.front().ts_us) << R"(,"pid":1,"tid":0})";
  }
  os << "\n]}\n";
  os.precision(precision);
}

void save_chrome_trace(const FlightRecorder& recorder, const std::string& path,
                       std::string_view process_name) {
  const std::vector<RecorderEvent> events = recorder.drain();
  std::ofstream file(path);
  SPICE_REQUIRE(file.is_open(), "could not open trace output: " + path);
  write_chrome_trace(file, events, recorder, process_name);
  file.flush();
  SPICE_REQUIRE(file.good(), "write failed for trace output: " + path);
}

}  // namespace spice::obs
