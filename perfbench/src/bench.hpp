#pragma once
// Shared plumbing of the repository benchmark: run options, the result
// report, wall-clock helpers, the FNV-1a replay digest and the span
// recorder that times each layer from outside, around calls into that
// layer's public functions. Nothing here reaches inside src/.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[nodiscard]] inline double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process (VmHWM), MiB. Workloads report it
/// after their first batch, so it does not grow with the batch count.
[[nodiscard]] double peak_rss_mib();

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void f64(double x) { bytes(&x, sizeof(x)); }
  void u64(std::uint64_t x) { bytes(&x, sizeof(x)); }
  void f64s(const std::vector<double>& xs) {
    u64(xs.size());
    for (const double x : xs) f64(x);
  }
};

/// What one run reports: the JSON result line plus human-readable
/// check lines. A failed check makes the process exit non-zero.
class Report {
 public:
  /// Record a metric. Untraced runs must set every end-to-end metric;
  /// traced runs start from every per-layer metric at 0 ("layer not on
  /// this workload's path") and overwrite what the workload measures.
  void set(const std::string& name, double value);
  void check(bool ok, const std::string& what);
  void count_operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Print the final result line with the metric set of the run's mode;
  /// returns false when a check failed or a metric is missing or invalid.
  bool print_result(bool trace) const;

 private:
  struct Entry {
    std::string name;
    double value;
  };
  std::vector<Entry> values_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder for traced runs: name, start, end and the
/// enclosing span. Self time of a span is its duration minus the part its
/// children cover.
class Spans {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };

  int open(const char* name);
  void close(int id);

  /// Summed duration of every span with this name, seconds.
  [[nodiscard]] double total(const char* name) const;
  [[nodiscard]] std::size_t count(const char* name) const;
  /// Summed self time of every span with this name, seconds.
  [[nodiscard]] double self(const char* name) const;

  /// Per-name count, total and self time, one line each.
  void print_table() const;

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span; a null recorder makes it a no-op (untraced runs).
class Scope {
 public:
  Scope(Spans* spans, const char* name) : spans_(spans), id_(spans ? spans->open(name) : -1) {}
  ~Scope() {
    if (spans_) spans_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

/// Run batches for `options.seconds` (at least one). Traced runs alternate
/// untraced and traced batches so the trace overhead compares like with
/// like; `run_one` gets a null recorder for an untraced batch.
template <class Batch, class RunOne>
void run_batches(const Options& options, Spans& spans, std::vector<Batch>& plain,
                 std::vector<Batch>& traced, RunOne&& run_one) {
  const double start = now_s();
  while (plain.empty() || (options.trace && traced.empty()) ||
         now_s() - start < options.seconds) {
    const bool trace_this = options.trace && plain.size() > traced.size();
    Batch batch = run_one(trace_this ? &spans : nullptr);
    (trace_this ? traced : plain).push_back(std::move(batch));
  }
}

/// The trace's own cost: traced ÷ untraced batch wall time as an overhead,
/// and how much of the `batches` traced "batch" spans the layer spans
/// cover (the rest is reported as uncovered seconds per batch).
void report_trace_cost(const Spans& spans, double traced_over_plain, double batches,
                       Report& report);

// Workloads. Each fills the report and prints its check lines.
void run_fig4_sweep(const Options& options, Report& report);
void run_grid(const Options& options, std::size_t sites, Report& report);
void run_hub_fanout(const Options& options, Report& report);

}  // namespace perfbench
