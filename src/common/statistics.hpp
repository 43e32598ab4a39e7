#pragma once
// Statistics utilities shared by the free-energy analysis (src/fe) and the
// grid/network simulators (src/grid, src/net): running moments,
// histograms, autocorrelation, and log-sum-exp helpers.

#include <cstddef>
#include <span>
#include <vector>

namespace spice {

/// Numerically stable running mean/variance (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Standard error of the mean; 0 for fewer than two samples.
  [[nodiscard]] double std_error() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double variance(std::span<const double> xs);
[[nodiscard]] double stddev(std::span<const double> xs);

/// p-th percentile (0 ≤ p ≤ 100) by linear interpolation of the sorted
/// sample. Requires a non-empty input.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// Streaming quantile estimation by the P² algorithm (Jain & Chlamtac,
/// CACM 1985): five markers track the target quantile and its neighbours
/// in O(1) memory, adjusted with piecewise-parabolic interpolation. Exact
/// for the first five observations; afterwards an estimate whose error
/// shrinks with sample count. Used by the grid's streaming campaign
/// metrics so a million-job run never stores per-job wait records.
class P2Quantile {
 public:
  /// q in (0, 1), e.g. 0.95 for the 95th percentile.
  explicit P2Quantile(double q);

  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  /// Current estimate; exact while fewer than five samples were seen.
  [[nodiscard]] double value() const;

 private:
  double q_;
  std::size_t n_ = 0;
  double heights_[5] = {0, 0, 0, 0, 0};     ///< marker heights (sorted)
  double positions_[5] = {1, 2, 3, 4, 5};   ///< actual marker positions
  double desired_[5] = {1, 2, 3, 4, 5};     ///< desired marker positions
  double increment_[5] = {0, 0, 0, 0, 0};   ///< desired-position increments
};

/// log(Σ exp(xᵢ)) computed without overflow. Requires non-empty input.
[[nodiscard]] double log_sum_exp(std::span<const double> xs);

/// log( (1/N) Σ exp(xᵢ) ).
[[nodiscard]] double log_mean_exp(std::span<const double> xs);

/// Fixed-range histogram with under/overflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0);

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] double bin_width() const;
  [[nodiscard]] double bin_center(std::size_t i) const;
  [[nodiscard]] double count(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] double underflow() const { return underflow_; }
  [[nodiscard]] double overflow() const { return overflow_; }
  [[nodiscard]] double total_weight() const { return total_; }

 private:
  double lo_;
  double hi_;
  std::vector<double> counts_;
  double underflow_ = 0.0;
  double overflow_ = 0.0;
  double total_ = 0.0;
};

/// Integrated autocorrelation time estimate (windowed sum of normalized
/// autocorrelation, Sokal-style auto window). Returns 0.5 for white noise
/// by convention τ_int = 1/2 + Σ ρ(t). Requires at least 4 samples.
[[nodiscard]] double integrated_autocorrelation_time(std::span<const double> xs);

/// Result of a block-average (Flyvbjerg–Petersen) error analysis of a
/// possibly autocorrelated series.
struct BlockAverageResult {
  std::size_t block_count = 0;  ///< blocks actually used (see block_average)
  std::size_t block_size = 0;   ///< samples per block (trailing remainder dropped)
  double mean = 0.0;            ///< mean over the blocked samples
  double std_error = 0.0;       ///< SE of the mean from the scatter of block means
};

/// Block-averaged standard error of the mean: split `xs` into
/// `block_count` contiguous blocks, and take std_error of the block means.
/// For a series whose autocorrelation time is shorter than a block, this
/// is an honest error bar where the naive SE underestimates.
///
/// The requested block count is a ceiling, not a contract: when
/// xs.size() < 2·block_count the count is clamped so every block holds at
/// least two samples (blocks of size 0/1 would make the block-mean
/// variance degenerate — a guard added after exactly that edge case
/// produced std_error = 0 for short series). Requires xs.size() ≥ 4 and
/// block_count ≥ 2.
[[nodiscard]] BlockAverageResult block_average(std::span<const double> xs,
                                               std::size_t block_count);

}  // namespace spice
