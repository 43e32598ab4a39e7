#include "obs/postmortem.hpp"

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"

namespace spice::obs {

namespace {

struct PostMortemState {
  std::mutex mutex;
  PostMortemConfig config;
  bool armed = false;
  bool signals_installed = false;
  /// Once-per-arm latch for the automatic triggers; explicit dumps bypass.
  std::atomic<bool> auto_fired{false};
  std::atomic<std::uint64_t> dumps{0};
};

PostMortemState& state() {
  static PostMortemState s;
  return s;
}

/// One node of the causal tree: aggregates the events stamped with
/// exactly this context depth, plus children one level narrower.
struct CausalNode {
  std::uint64_t events = 0;
  double first_ts_us = 0.0;
  double last_ts_us = 0.0;
  /// Span name → (count, total µs). Instants/marks count with 0 µs.
  std::map<std::string, std::pair<std::uint64_t, double>> names;
  std::map<std::string, CausalNode> children;

  void add(const RecorderEvent& e) {
    if (events == 0 || e.ts_us < first_ts_us) first_ts_us = e.ts_us;
    if (events == 0 || e.ts_us > last_ts_us) last_ts_us = e.ts_us;
    ++events;
    auto& [count, total_us] = names[e.name != nullptr ? e.name : "?"];
    ++count;
    if (e.kind == RecordKind::Span) total_us += e.value;
  }
};

void write_node(std::ostream& os, const std::string& id, const CausalNode& node,
                int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  os << pad << "{\"id\":" << json_quote(id) << ",\"events\":" << node.events
     << ",\"first_ts_us\":" << node.first_ts_us << ",\"last_ts_us\":" << node.last_ts_us
     << ",\n" << pad << " \"spans\":{";
  bool first = true;
  for (const auto& [name, stats] : node.names) {
    if (!first) os << ",";
    first = false;
    os << json_quote(name) << ":{\"count\":" << stats.first << ",\"total_us\":" << stats.second
       << "}";
  }
  os << "},\n" << pad << " \"children\":[";
  first = true;
  for (const auto& [child_id, child] : node.children) {
    os << (first ? "\n" : ",\n");
    first = false;
    write_node(os, child_id, child, indent + 2);
  }
  if (!first) os << "\n" << pad << " ";
  os << "]}";
}

/// Causal tree: campaign → job → replica → session, one path per event.
/// An event is aggregated at the deepest level its context names, so
/// replica-level engine spans and session-level hub updates that share a
/// (campaign, job) prefix end up siblings under the same ancestors — the
/// linkage the post-mortem reader walks.
void write_causal_json(std::ostream& os, const std::vector<RecorderEvent>& events,
                       const std::string& reason) {
  CausalNode root;
  for (const RecorderEvent& e : events) {
    CausalNode* node = &root;
    if (!e.ctx.empty()) {
      if (e.ctx.campaign_id() != 0) {
        node = &node->children["c" + std::to_string(e.ctx.campaign_id())];
      }
      if (e.ctx.job_id() != 0) {
        node = &node->children["j" + std::to_string(e.ctx.job_id())];
      }
      if (e.ctx.has_replica()) {
        node = &node->children["r" + std::to_string(e.ctx.replica_id())];
      }
      if (e.ctx.has_session()) {
        node = &node->children["s" + std::to_string(e.ctx.session_id())];
      }
    }
    node->add(e);
  }
  os << "{\"reason\":" << json_quote(reason) << ",\"events\":" << events.size()
     << ",\"overwritten\":" << flight_recorder().overwritten_count() << ",\"tree\":\n";
  write_node(os, "root", root, 1);
  os << "\n}\n";
}

std::string resolve_output_dir(const std::string& configured) {
  if (!configured.empty()) return configured;
  const char* env = std::getenv("SPICE_OUTPUT_DIR");
  return env != nullptr && env[0] != '\0' ? env : ".";
}

void maybe_auto_dump(const char* trigger, const std::string& detail,
                     bool PostMortemConfig::*flag) {
  PostMortemState& s = state();
  {
    std::lock_guard lock(s.mutex);
    if (!s.armed || !(s.config.*flag)) return;
  }
  if (s.auto_fired.exchange(true)) return;  // one auto dump per arm
  dump_post_mortem(std::string(trigger) + ": " + detail);
}

// --- signal trigger -------------------------------------------------------

constexpr int kFatalSignals[] = {SIGTERM, SIGINT, SIGABRT, SIGSEGV, SIGBUS, SIGFPE};

void fatal_signal_handler(int sig) {
  // Best-effort black-box write; then die by the original signal so the
  // parent sees the true cause.
  maybe_auto_dump("signal", std::to_string(sig), &PostMortemConfig::dump_on_signal);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void install_signal_handlers() {
  for (const int sig : kFatalSignals) std::signal(sig, &fatal_signal_handler);
}

}  // namespace

void arm_post_mortem(PostMortemConfig config) {
  PostMortemState& s = state();
  std::lock_guard lock(s.mutex);
  s.config = std::move(config);
  s.armed = true;
  s.auto_fired.store(false);
  if (s.config.dump_on_signal && !s.signals_installed) {
    install_signal_handlers();
    s.signals_installed = true;
  }
}

void disarm_post_mortem() {
  PostMortemState& s = state();
  std::lock_guard lock(s.mutex);
  s.armed = false;
}

std::string dump_post_mortem(const std::string& reason) {
  PostMortemState& s = state();
  std::string prefix;
  {
    std::lock_guard lock(s.mutex);
    prefix = resolve_output_dir(s.config.output_dir) + "/" +
             (s.config.prefix.empty() ? "postmortem" : s.config.prefix);
  }
  const std::vector<RecorderEvent> events = flight_recorder().drain();
  {
    std::ofstream flight(prefix + "_flight.json", std::ios::trunc);
    if (!flight.is_open()) return "";
    write_chrome_trace(flight, events, flight_recorder(), "spice flight recorder — " + reason);
  }
  {
    std::ofstream causal(prefix + "_causal.json", std::ios::trunc);
    if (!causal.is_open()) return "";
    write_causal_json(causal, events, reason);
  }
  {
    std::ofstream prom(prefix + "_registry.prom", std::ios::trunc);
    if (!prom.is_open()) return "";
    write_prometheus(prom, metrics().snapshot());
  }
  s.dumps.fetch_add(1, std::memory_order_relaxed);
  SPICE_WARN("post-mortem dump (" + reason + ") written to " + prefix + "_{flight,causal}.json");
  return prefix;
}

std::uint64_t post_mortem_dump_count() {
  return state().dumps.load(std::memory_order_relaxed);
}

void notify_stall_for_post_mortem(const std::string& entry_name) {
  maybe_auto_dump("watchdog stall", entry_name, &PostMortemConfig::dump_on_watchdog);
}

}  // namespace spice::obs
