// spice_perfbench — the repository benchmark's workload binary.
//
//   spice_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--commit <id>]
//
// Workloads (closed batches from one process, inputs a pure function of
// --seed): fig4_sweep, grid_wide, grid_narrow, hub_fanout. See
// perfbench/RATIONALE.md for why each exists and which layers it
// stresses. Untraced runs print the end-to-end metrics; traced runs wrap
// each layer's public calls in spans and print the per-layer metrics. The
// last stdout line is the JSON result; a failed check exits non-zero.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "bench.hpp"
#include "md/simd.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed names against it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"time_to_result_s", "s"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
    {"success_rate", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"pore.build_s", "s"},
    {"md.force_eval_us", "us"},
    {"md.step_us", "us"},
    {"md.force_eval_us_t1", "us"},
    {"md.step_us_t1", "us"},
    {"md.integrate_us", "us"},
    {"md.ensemble_build_ms", "ms"},
    {"md.replica_step_us", "us"},
    {"md.wave_imbalance", "ratio"},
    {"smd.pull_s", "s"},
    {"smd.pulls", "count"},
    {"fe.jarzynski_ms", "ms"},
    {"fe.bootstrap_ms", "ms"},
    {"fe.umbrella_s", "s"},
    {"fe.umbrella_steps", "count"},
    {"fe.wham_iterations", "count"},
    {"core.optimizer_ms", "ms"},
    {"grid.paper_federation_ms", "ms"},
    {"grid.setup_s", "s"},
    {"grid.submit_s", "s"},
    {"grid.drain_s", "s"},
    {"grid.events", "count"},
    {"grid.events_per_job", "ratio"},
    {"grid.held_dispatches", "count"},
    {"grid.checkpoint_restarts", "count"},
    {"grid.useful_cpu_ratio", "ratio"},
    {"hub.setup_us", "us"},
    {"hub.run_s", "s"},
    {"hub.update_ns", "ns"},
    {"hub.keyframe_ratio", "ratio"},
    {"hub.drop_ratio", "ratio"},
    {"hub.resyncs", "count"},
    {"hub.commands_accepted", "count"},
    {"hub.commands_rejected", "count"},
    {"hub.send_failures", "count"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.span_coverage_pct", "%"},
    {"bench.uncovered_s", "s"},
};

/// CPUs this process may run on (what `nproc` prints).
std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return 1;
}

/// Threads the workload runs with; refused when above nproc.
std::size_t workload_threads(const std::string& workload) {
  return workload == "fig4_sweep" ? 4 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: spice_perfbench --workload fig4_sweep|grid_wide|grid_narrow|"
               "hub_fanout --seed N --seconds S --trace 0|1 [--commit ID]\n",
               why);
  std::exit(2);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

void Report::set(const std::string& name, double value) {
  for (auto& entry : values_) {
    if (entry.name == name) {
      entry.value = value;
      return;
    }
  }
  values_.push_back({name, value});
}

void Report::check(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) correct_ = false;
}

bool Report::print_result(bool trace) const {
  const MetricDef* defs = trace ? kPerLayer : kEndToEnd;
  const std::size_t n = trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::map<std::string, double> values;
  for (const auto& entry : values_) values[entry.name] = entry.value;

  bool correct = correct_;
  std::string metrics;
  for (std::size_t i = 0; i < n; ++i) {
    auto it = values.find(defs[i].name);
    double value = 0.0;
    if (it != values.end()) {
      value = it->second;
      values.erase(it);
    } else if (!trace) {
      std::fprintf(stderr, "error: end-to-end metric %s was not measured\n", defs[i].name);
      correct = false;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "error: metric %s is not finite\n", defs[i].name);
      correct = false;
      value = 0.0;
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", defs[i].name, value, defs[i].unit);
    metrics += buf;
  }
  for (const auto& [name, value] : values) {
    std::fprintf(stderr, "error: metric %s is not declared for this mode\n", name.c_str());
    correct = false;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), metrics.c_str());
  return correct;
}

void report_trace_cost(const Spans& spans, double traced_over_plain, double batches,
                       Report& report) {
  const double uncovered_s = spans.self("batch");
  const double coverage_pct = 100.0 * (1.0 - uncovered_s / spans.total("batch"));
  report.set("bench.trace_overhead_pct", 100.0 * (traced_over_plain - 1.0));
  report.set("bench.span_coverage_pct", coverage_pct);
  report.set("bench.uncovered_s", uncovered_s / batches);
  std::printf("trace overhead %.3f%%; layer spans cover %.3f%% of the traced batches "
              "(%.6f s uncovered per batch)\n",
              100.0 * (traced_over_plain - 1.0), coverage_pct, uncovered_s / batches);
}

int Spans::open(const char* name) {
  spans_.push_back({name, now_s(), 0.0, current_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Spans::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  current_ = spans_[static_cast<std::size_t>(id)].parent;
}

double Spans::total(const char* name) const {
  double sum = 0.0;
  for (const auto& s : spans_) {
    if (std::strcmp(s.name, name) == 0) sum += s.end - s.start;
  }
  return sum;
}

std::size_t Spans::count(const char* name) const {
  return static_cast<std::size_t>(std::count_if(spans_.begin(), spans_.end(), [name](const Span& s) {
    return std::strcmp(s.name, name) == 0;
  }));
}

double Spans::self(const char* name) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) != 0) continue;
    sum += spans_[i].end - spans_[i].start;
    for (const auto& child : spans_) {
      if (child.parent == static_cast<int>(i)) sum -= child.end - child.start;
    }
  }
  return sum;
}

void Spans::print_table() const {
  std::vector<const char*> names;
  for (const auto& s : spans_) {
    if (std::none_of(names.begin(), names.end(),
                     [&s](const char* n) { return std::strcmp(n, s.name) == 0; })) {
      names.push_back(s.name);
    }
  }
  std::printf("%-34s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const char* name : names) {
    std::printf("%-34s %8zu %12.6f %12.6f\n", name, count(name), total(name), self(name));
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  const std::size_t nproc = available_cpus();
  const std::size_t threads = workload_threads(options.workload);
  std::printf("meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
              "\"threads\": %zu, \"nproc\": %zu, \"simd\": \"%s\", \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"commit\": \"%s\"}\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, threads, nproc,
              std::string(spice::md::simd::name(spice::md::simd::active())).c_str(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, commit.c_str());
  if (threads > nproc) {
    std::fprintf(stderr, "error: workload %s needs %zu threads but only %zu CPUs are available\n",
                 options.workload.c_str(), threads, nproc);
    return 3;
  }

  Report report;
  if (options.trace) {
    for (const auto& def : kPerLayer) report.set(def.name, 0.0);
  }
  if (options.workload == "fig4_sweep") {
    run_fig4_sweep(options, report);
  } else if (options.workload == "grid_wide") {
    run_grid(options, 1000, report);
  } else if (options.workload == "grid_narrow") {
    run_grid(options, 10, report);
  } else if (options.workload == "hub_fanout") {
    run_hub_fanout(options, report);
  } else {
    usage(("unknown workload " + options.workload).c_str());
  }
  if (!options.trace) {
    // An operation is a (κ, v) cell, a grid job or a published hub frame.
    const double attempted = static_cast<double>(report.attempted());
    const double failed = static_cast<double>(report.failed());
    std::printf("error_rate %.6g (%llu of %llu operations failed)\n", failed / attempted,
                static_cast<unsigned long long>(report.failed()),
                static_cast<unsigned long long>(report.attempted()));
    report.set("success_rate", (attempted - failed) / attempted);
  }

  std::fflush(stdout);
  return report.print_result(options.trace) ? 0 : 1;
}
