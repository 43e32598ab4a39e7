#include "common/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace spice {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::mean() const { return n_ > 0 ? mean_ : 0.0; }

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::std_error() const {
  return n_ > 1 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

double RunningStats::min() const { return min_; }
double RunningStats::max() const { return max_; }

double mean(std::span<const double> xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.mean();
}

double variance(std::span<const double> xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.variance();
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double percentile(std::vector<double> xs, double p) {
  SPICE_REQUIRE(!xs.empty(), "percentile of empty sample");
  SPICE_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p must be in [0,100]");
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs.front();
  const double rank = (p / 100.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

P2Quantile::P2Quantile(double q) : q_(q) {
  SPICE_REQUIRE(q > 0.0 && q < 1.0, "P2 quantile must be in (0,1)");
  increment_[0] = 0.0;
  increment_[1] = q_ / 2.0;
  increment_[2] = q_;
  increment_[3] = (1.0 + q_) / 2.0;
  increment_[4] = 1.0;
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q_;
  desired_[2] = 1.0 + 4.0 * q_;
  desired_[3] = 3.0 + 2.0 * q_;
  desired_[4] = 5.0;
}

void P2Quantile::add(double x) {
  if (n_ < 5) {
    heights_[n_++] = x;
    if (n_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }
  // Cell containing x (markers 0..4 bracket the sample so far).
  std::size_t k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  for (std::size_t i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (std::size_t i = 0; i < 5; ++i) desired_[i] += increment_[i];
  ++n_;
  // Adjust interior markers toward their desired positions, preferring the
  // piecewise-parabolic (P²) height update, falling back to linear when the
  // parabola would break marker monotonicity. Both branches are clamped to
  // the bracketing marker heights: with near-duplicate heights the linear
  // step `qi + s·(qj − qi)/gap` can round past qj, and an estimator whose
  // markers cross never recovers (the cell search assumes sorted heights).
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const bool right = d >= 1.0 && positions_[i + 1] - positions_[i] > 1.0;
    const bool left = d <= -1.0 && positions_[i - 1] - positions_[i] < -1.0;
    if (!right && !left) continue;
    const double s = right ? 1.0 : -1.0;
    const double qp = heights_[i + 1];
    const double qm = heights_[i - 1];
    // Duplicate-saturated cell (a run of equal samples pinned all three
    // markers): the height cannot move, but the position must — otherwise
    // the marker keeps re-qualifying and the parabola is fed a degenerate
    // bracket on the next distinct sample.
    if (qp > qm) {
      const double np = positions_[i + 1];
      const double nm = positions_[i - 1];
      const double n0 = positions_[i];
      const double parabolic =
          heights_[i] + s / (np - nm) *
                            ((n0 - nm + s) * (qp - heights_[i]) / (np - n0) +
                             (np - n0 - s) * (heights_[i] - qm) / (n0 - nm));
      if (qm < parabolic && parabolic < qp) {
        heights_[i] = parabolic;
      } else {
        const std::size_t j = right ? i + 1 : i - 1;
        const double linear =
            heights_[i] +
            s * (heights_[j] - heights_[i]) / (positions_[j] - positions_[i]);
        heights_[i] = std::clamp(linear, qm, qp);
      }
    }
    positions_[i] += s;
  }
}

double P2Quantile::value() const {
  SPICE_REQUIRE(n_ > 0, "P2 quantile of empty sample");
  if (n_ < 5) {
    // Exact small-sample percentile over the buffered observations.
    std::vector<double> xs(heights_, heights_ + n_);
    return percentile(std::move(xs), q_ * 100.0);
  }
  return heights_[2];
}

double log_sum_exp(std::span<const double> xs) {
  SPICE_REQUIRE(!xs.empty(), "log_sum_exp of empty sample");
  const double m = *std::max_element(xs.begin(), xs.end());
  if (!std::isfinite(m)) return m;  // all -inf (or a +inf/NaN dominates)
  double acc = 0.0;
  for (double x : xs) acc += std::exp(x - m);
  return m + std::log(acc);
}

double log_mean_exp(std::span<const double> xs) {
  return log_sum_exp(xs) - std::log(static_cast<double>(xs.size()));
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi), counts_(bins) {
  SPICE_REQUIRE(hi > lo, "histogram needs hi > lo");
  SPICE_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x, double weight) {
  total_ += weight;
  if (x < lo_) {
    underflow_ += weight;
    return;
  }
  if (x >= hi_) {
    overflow_ += weight;
    return;
  }
  const auto i = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) *
                                          static_cast<double>(counts_.size()));
  counts_[std::min(i, counts_.size() - 1)] += weight;
}

double Histogram::bin_width() const {
  return (hi_ - lo_) / static_cast<double>(counts_.size());
}

double Histogram::bin_center(std::size_t i) const {
  SPICE_REQUIRE(i < counts_.size(), "histogram bin out of range");
  return lo_ + (static_cast<double>(i) + 0.5) * bin_width();
}

BlockAverageResult block_average(std::span<const double> xs, std::size_t block_count) {
  SPICE_REQUIRE(xs.size() >= 4, "block average needs at least 4 samples");
  SPICE_REQUIRE(block_count >= 2, "block average needs at least 2 blocks");
  // Clamp so every block holds ≥ 2 samples; integer division would
  // otherwise hand out size-0/1 blocks whenever samples < 2·block_count.
  block_count = std::min(block_count, xs.size() / 2);
  const std::size_t block_size = xs.size() / block_count;
  RunningStats block_means;
  for (std::size_t b = 0; b < block_count; ++b) {
    RunningStats block;
    for (std::size_t i = b * block_size; i < (b + 1) * block_size; ++i) block.add(xs[i]);
    block_means.add(block.mean());
  }
  BlockAverageResult out;
  out.block_count = block_count;
  out.block_size = block_size;
  out.mean = block_means.mean();
  out.std_error = block_means.std_error();
  return out;
}

double integrated_autocorrelation_time(std::span<const double> xs) {
  SPICE_REQUIRE(xs.size() >= 4, "autocorrelation needs at least 4 samples");
  const double mu = mean(xs);
  const double var = variance(xs);
  if (var <= 0.0) return 0.5;
  const std::size_t n = xs.size();
  double tau = 0.5;
  // Sokal automatic windowing: stop once the window exceeds c·τ.
  constexpr double kWindowFactor = 6.0;
  for (std::size_t t = 1; t < n / 2; ++t) {
    double c = 0.0;
    for (std::size_t i = 0; i + t < n; ++i) c += (xs[i] - mu) * (xs[i + t] - mu);
    c /= static_cast<double>(n - t) * var;
    tau += c;
    if (static_cast<double>(t) >= kWindowFactor * tau) break;
  }
  return std::max(tau, 0.5);
}

}  // namespace spice
