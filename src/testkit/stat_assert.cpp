#include "testkit/stat_assert.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace spice::testkit {

namespace {

std::string format_line(const char* fmt, double a, double b, double c) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

/// Every comparator funnels through here so the obs registry sees one
/// consistent account of validation activity (satellite: dashboards and
/// exporters surface test-observed drift without bespoke wiring).
CheckResult record(bool passed, double statistic, double threshold, std::string detail) {
  static obs::Counter& total = obs::metrics().counter("testkit.checks.total");
  static obs::Counter& failed = obs::metrics().counter("testkit.checks.failed");
  total.add(1);
  if (!passed) {
    failed.add(1);
    SPICE_WARN("testkit check failed: " + detail);
  }
  return CheckResult{passed, statistic, threshold, std::move(detail)};
}

}  // namespace

double standard_normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double standard_normal_quantile(double p) {
  SPICE_REQUIRE(p > 0.0 && p < 1.0, "normal quantile needs p in (0,1)");
  // Acklam's rational approximation with one Halley refinement step.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x = 0.0;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // Halley refinement against the erfc-based CDF.
  const double e = standard_normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
  return x - u / (1.0 + 0.5 * x * u);
}

double chi_squared_critical(double dof, double quantile) {
  SPICE_REQUIRE(dof >= 1.0, "chi² needs dof ≥ 1");
  SPICE_REQUIRE(quantile > 0.0 && quantile < 1.0, "chi² quantile must be in (0,1)");
  // Wilson–Hilferty: χ²_q ≈ dof·(1 − 2/(9·dof) + z_q·√(2/(9·dof)))³.
  const double z = standard_normal_quantile(quantile);
  const double h = 2.0 / (9.0 * dof);
  const double cube = 1.0 - h + z * std::sqrt(h);
  return dof * cube * cube * cube;
}

CheckResult z_test_mean(std::span<const double> samples, double expected_mean,
                        double z_threshold) {
  SPICE_REQUIRE(samples.size() >= 3, "z-test needs at least 3 samples");
  RunningStats stats;
  for (double x : samples) stats.add(x);
  const double se = stats.std_error();
  const double z = se > 0.0 ? (stats.mean() - expected_mean) / se : 0.0;
  const bool degenerate_miss = se == 0.0 && stats.mean() != expected_mean;
  return record(std::abs(z) <= z_threshold && !degenerate_miss, z, z_threshold,
                format_line("z-test: mean %.6g vs expected %.6g, z = %.3g", stats.mean(),
                            expected_mean, z));
}

CheckResult z_test_mean_known_sigma(std::span<const double> samples, double expected_mean,
                                    double sigma_single, double z_threshold) {
  SPICE_REQUIRE(!samples.empty(), "z-test needs samples");
  SPICE_REQUIRE(sigma_single > 0.0, "known σ must be positive");
  RunningStats stats;
  for (double x : samples) stats.add(x);
  const double se = sigma_single / std::sqrt(static_cast<double>(samples.size()));
  const double z = (stats.mean() - expected_mean) / se;
  return record(std::abs(z) <= z_threshold, z, z_threshold,
                format_line("z-test(σ known): mean %.6g vs expected %.6g, z = %.3g",
                            stats.mean(), expected_mean, z));
}

CheckResult z_test_mean_blocked(std::span<const double> series, double expected_mean,
                                std::size_t block_count, double z_threshold) {
  const BlockAverageResult blocks = block_average(series, block_count);
  const double z =
      blocks.std_error > 0.0 ? (blocks.mean - expected_mean) / blocks.std_error : 0.0;
  const bool degenerate_miss = blocks.std_error == 0.0 && blocks.mean != expected_mean;
  return record(std::abs(z) <= z_threshold && !degenerate_miss, z, z_threshold,
                format_line("blocked z-test: mean %.6g vs expected %.6g, z = %.3g",
                            blocks.mean, expected_mean, z));
}

CheckResult chi_squared_vs_cdf(const Histogram& histogram, const Cdf& cdf, double quantile,
                               double min_expected) {
  const double n = histogram.total_weight();
  SPICE_REQUIRE(n > 0.0, "chi² needs a filled histogram");
  SPICE_REQUIRE(min_expected > 0.0, "min_expected must be positive");

  // Observed and expected mass per bucket, tails included.
  const std::size_t bins = histogram.bins();
  const double width = histogram.bin_width();
  std::vector<double> observed;
  std::vector<double> expected;
  observed.reserve(bins + 2);
  expected.reserve(bins + 2);
  observed.push_back(histogram.underflow());
  expected.push_back(n * cdf(histogram.lo()));
  for (std::size_t i = 0; i < bins; ++i) {
    const double lo = histogram.lo() + static_cast<double>(i) * width;
    observed.push_back(histogram.count(i));
    expected.push_back(n * (cdf(lo + width) - cdf(lo)));
  }
  observed.push_back(histogram.overflow());
  expected.push_back(n * (1.0 - cdf(histogram.hi())));

  // Greedy left-to-right merge of under-populated bins (standard χ²
  // validity rule: every expected count comfortably above ~5).
  std::vector<double> obs_merged;
  std::vector<double> exp_merged;
  double acc_obs = 0.0;
  double acc_exp = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    acc_obs += observed[i];
    acc_exp += expected[i];
    if (acc_exp >= min_expected) {
      obs_merged.push_back(acc_obs);
      exp_merged.push_back(acc_exp);
      acc_obs = 0.0;
      acc_exp = 0.0;
    }
  }
  if (acc_exp > 0.0 || acc_obs > 0.0) {
    if (obs_merged.empty()) {
      obs_merged.push_back(acc_obs);
      exp_merged.push_back(acc_exp);
    } else {
      obs_merged.back() += acc_obs;
      exp_merged.back() += acc_exp;
    }
  }
  SPICE_REQUIRE(obs_merged.size() >= 3,
                "chi² needs ≥ 3 populated bins after merging — widen the histogram or add "
                "samples");

  double chi2 = 0.0;
  for (std::size_t i = 0; i < obs_merged.size(); ++i) {
    const double diff = obs_merged[i] - exp_merged[i];
    chi2 += diff * diff / exp_merged[i];
  }
  const double dof = static_cast<double>(obs_merged.size() - 1);
  const double critical = chi_squared_critical(dof, quantile);
  return record(chi2 <= critical, chi2, critical,
                format_line("chi²: %.4g vs critical %.4g at dof %.0f", chi2, critical, dof));
}

CheckResult check(bool passed, std::string detail) {
  return record(passed, passed ? 0.0 : 1.0, 0.0, std::move(detail));
}

CheckResult near(double observed, double expected, double abs_tol, double rel_tol,
                 std::string_view label) {
  SPICE_REQUIRE(abs_tol >= 0.0 && rel_tol >= 0.0, "tolerances must be non-negative");
  const double bound = abs_tol + rel_tol * std::abs(expected);
  const double deviation = std::abs(observed - expected);
  std::string detail(label);
  detail += ": " + format_line("%.6g vs %.6g (|Δ| = %.3g)", observed, expected, deviation);
  return record(deviation <= bound, deviation, bound, std::move(detail));
}

}  // namespace spice::testkit
