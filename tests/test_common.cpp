// Unit tests for src/common: vector math, RNG streams, statistics,
// serialization, the thread pool and the unit system.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/statistics.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "common/vec3.hpp"

namespace {

using namespace spice;

// --- Vec3 -----------------------------------------------------------------

TEST(Vec3, ArithmeticIdentities) {
  const Vec3 a{1.0, -2.0, 3.0};
  const Vec3 b{0.5, 4.0, -1.0};
  EXPECT_EQ(a + b - b, a);
  EXPECT_EQ(a * 2.0, Vec3(2.0, -4.0, 6.0));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, a * -1.0);
  EXPECT_DOUBLE_EQ((a / 2.0).x, 0.5);
}

TEST(Vec3, DotAndCross) {
  const Vec3 x{1, 0, 0};
  const Vec3 y{0, 1, 0};
  const Vec3 z{0, 0, 1};
  EXPECT_DOUBLE_EQ(dot(x, y), 0.0);
  EXPECT_EQ(cross(x, y), z);
  EXPECT_EQ(cross(y, z), x);
  EXPECT_EQ(cross(z, x), y);
  const Vec3 a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(dot(a, cross(a, y)), 0.0);  // a ⟂ a×y
}

TEST(Vec3, NormAndNormalize) {
  const Vec3 v{3.0, 4.0, 0.0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm2(), 25.0);
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-15);
  EXPECT_EQ(Vec3{}.normalized(), Vec3{});  // zero vector maps to itself
  EXPECT_DOUBLE_EQ(distance(Vec3{1, 1, 1}, Vec3{1, 1, 2}), 1.0);
}

// --- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsAreIndependentAndReproducible) {
  Rng a = Rng::stream(1, 2, 3);
  Rng a2 = Rng::stream(1, 2, 3);
  Rng b = Rng::stream(1, 2, 4);
  EXPECT_EQ(a.next_u64(), a2.next_u64());
  // Different stream coordinates give different sequences.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, StreamFamilyMatchesStream) {
  // Reference: the stream-derivation mix written out term by term, so the
  // hoisted family and stream() are both pinned to the historical words.
  const auto reference = [](std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                            std::uint64_t c) {
    std::uint64_t mixed = SplitMix64(seed).next();
    mixed ^= SplitMix64(a ^ 0x8af0d8bc04c1e7c9ULL).next();
    mixed ^= std::rotl(SplitMix64(b ^ 0x3b97acd53f7ae9d1ULL).next(), 17);
    mixed ^= std::rotl(SplitMix64(c ^ 0x94d6a1c7b1e55af3ULL).next(), 41);
    return Rng(mixed);
  };
  constexpr std::uint64_t kLan = 0x6c616e;  // the Langevin noise purpose tag
  Rng sampler(2024);
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t seed = t < 4 ? std::uint64_t(t) : sampler.next_u64();
    const std::uint64_t step = t % 2 == 0 ? sampler.uniform_index(1'000'000) : ~0ULL - t;
    const Rng::StreamFamily family(seed, kLan, step);
    for (const std::uint64_t i : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{11},
                                  sampler.uniform_index(1u << 20)}) {
      Rng hoisted = family.at(i);
      Rng direct = Rng::stream(seed, kLan, i, step);
      Rng ref = reference(seed, kLan, i, step);
      for (int k = 0; k < 4; ++k) {
        const std::uint64_t word = ref.next_u64();
        ASSERT_EQ(hoisted.next_u64(), word) << "seed " << seed << " i " << i << " step " << step;
        ASSERT_EQ(direct.next_u64(), word) << "seed " << seed << " i " << i << " step " << step;
      }
    }
  }
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) counts[rng.uniform_index(10)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, 5 * std::sqrt(kDraws / 10.0));
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(2.5));
  EXPECT_NEAR(stats.mean(), 2.5, 0.05);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(17);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

// --- statistics --------------------------------------------------------------

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats s;
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 6.2);
  EXPECT_NEAR(s.variance(), 37.2, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  EXPECT_EQ(s.count(), 5u);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(3);
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(2.0, 3.0);
    all.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.count(), all.count());
}

TEST(Statistics, Percentile) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.0);
  EXPECT_THROW((void)percentile({}, 50.0), PreconditionError);
}

TEST(P2Quantile, WarmupIsExactSmallSamplePercentile) {
  // Fewer than five samples: the estimator must report the exact
  // interpolated percentile of what it has buffered, not marker garbage.
  P2Quantile q(0.95);
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);
  q.add(1.0);  // unsorted arrival order must not matter
  EXPECT_DOUBLE_EQ(q.value(), percentile({3.0, 1.0}, 95.0));
  q.add(2.0);
  q.add(2.0);  // duplicates during warm-up
  EXPECT_DOUBLE_EQ(q.value(), percentile({3.0, 1.0, 2.0, 2.0}, 95.0));
  EXPECT_EQ(q.count(), 4u);
}

TEST(P2Quantile, ConstantSeriesStaysExact) {
  // A constant stream saturates every marker with duplicates; the
  // degenerate-cell guard must hold the estimate at the value exactly —
  // any drift here is a marker-update bug, not approximation error.
  for (const double quantile : {0.1, 0.5, 0.9}) {
    P2Quantile q(quantile);
    for (int i = 0; i < 1000; ++i) q.add(7.25);
    EXPECT_DOUBLE_EQ(q.value(), 7.25) << "q = " << quantile;
  }
}

TEST(P2Quantile, TwoValueSeriesStaysBracketedAndNearTruth) {
  // Streams drawn from {0, 1} exercise the duplicate-height parabola
  // fallback on every sample. The estimate must stay inside the sample
  // range (clamped updates) and converge near the true quantile.
  {
    P2Quantile q(0.9);  // alternating: q90 = 1
    for (int i = 0; i < 2000; ++i) q.add(i % 2 ? 1.0 : 0.0);
    EXPECT_GE(q.value(), 0.0);
    EXPECT_LE(q.value(), 1.0);
    EXPECT_NEAR(q.value(), 1.0, 1e-6);
  }
  {
    P2Quantile q(0.5);  // 90 % zeros: median = 0
    for (int i = 0; i < 2000; ++i) q.add(i % 10 == 0 ? 1.0 : 0.0);
    EXPECT_GE(q.value(), 0.0);
    EXPECT_LE(q.value(), 1.0);
    EXPECT_NEAR(q.value(), 0.0, 1e-6);
  }
}

TEST(P2Quantile, MedianConvergesOnSmoothStream) {
  // Sanity on a non-degenerate stream: deterministic uniform-ish samples,
  // median ≈ 0.5 well within the P² approximation error.
  P2Quantile q(0.5);
  Rng rng(2026);
  for (int i = 0; i < 20000; ++i) q.add(rng.uniform(0.0, 1.0));
  EXPECT_NEAR(q.value(), 0.5, 0.02);
}

TEST(Statistics, LogSumExpStability) {
  // Would overflow naively: exp(800).
  const std::vector<double> xs{800.0, 800.0};
  EXPECT_NEAR(log_sum_exp(xs), 800.0 + std::log(2.0), 1e-9);
  EXPECT_NEAR(log_mean_exp(xs), 800.0, 1e-9);
  // And underflow: exp(-800).
  const std::vector<double> ys{-800.0, -801.0};
  EXPECT_NEAR(log_sum_exp(ys), -800.0 + std::log(1.0 + std::exp(-1.0)), 1e-9);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(5.5);
  h.add(9.9999);
  h.add(10.0);
  h.add(25.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 2.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(5), 1.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 6.0);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_width(), 1.0);
}

TEST(Statistics, AutocorrelationWhiteNoiseIsHalf) {
  Rng rng(31);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.gaussian();
  EXPECT_NEAR(integrated_autocorrelation_time(xs), 0.5, 0.25);
}

TEST(Statistics, AutocorrelationDetectsCorrelation) {
  // AR(1) with φ = 0.9 has τ_int = ½(1+φ)/(1−φ) = 9.5.
  Rng rng(37);
  std::vector<double> xs(20000);
  double x = 0.0;
  for (auto& out : xs) {
    x = 0.9 * x + rng.gaussian();
    out = x;
  }
  const double tau = integrated_autocorrelation_time(xs);
  EXPECT_GT(tau, 4.0);
  EXPECT_LT(tau, 20.0);
}

TEST(Statistics, BlockAverageMatchesDirectBlockMeans) {
  // 16 samples in 4 blocks of 4: hand-computable.
  std::vector<double> xs;
  for (int i = 0; i < 16; ++i) xs.push_back(static_cast<double>(i));
  const BlockAverageResult r = block_average(xs, 4);
  EXPECT_EQ(r.block_count, 4u);
  EXPECT_EQ(r.block_size, 4u);
  EXPECT_DOUBLE_EQ(r.mean, 7.5);  // block means 1.5, 5.5, 9.5, 13.5
  RunningStats direct;
  for (const double m : {1.5, 5.5, 9.5, 13.5}) direct.add(m);
  EXPECT_DOUBLE_EQ(r.std_error, direct.std_error());
}

TEST(Statistics, BlockAverageClampsShortSeries) {
  // Regression: requesting more blocks than samples/2 used to produce
  // blocks of size 0/1 — size-1 blocks make the block-mean scatter equal
  // the raw scatter (defeating the purpose), size-0 blocks were UB. The
  // count must clamp so every block holds ≥ 2 samples.
  std::vector<double> xs;
  Rng rng(41);
  for (int i = 0; i < 10; ++i) xs.push_back(rng.gaussian());
  const BlockAverageResult r = block_average(xs, 16);  // 10 < 2·16
  EXPECT_EQ(r.block_count, 5u);
  EXPECT_EQ(r.block_size, 2u);
  EXPECT_GT(r.std_error, 0.0);

  // Degenerate requests are rejected outright.
  EXPECT_THROW((void)block_average(std::vector<double>{1.0, 2.0, 3.0}, 2),
               PreconditionError);
  EXPECT_THROW((void)block_average(xs, 1), PreconditionError);
}

TEST(Statistics, BlockAverageErrorHonestForCorrelatedSeries) {
  // AR(1), φ = 0.9: true SE of the mean is √(τ₂/n)·σ with inflation
  // (1+φ)/(1−φ) = 19 over the naive SE. Block averaging with long blocks
  // must land near the true value where the naive estimate is ~4.4× low.
  Rng rng(43);
  std::vector<double> xs(32768);
  double x = 0.0;
  for (auto& out : xs) {
    x = 0.9 * x + rng.gaussian();
    out = x;
  }
  const BlockAverageResult blocked = block_average(xs, 32);
  const double sigma2 = variance(xs);
  const double true_se = std::sqrt(19.0 * sigma2 / static_cast<double>(xs.size()));
  EXPECT_GT(blocked.std_error, 0.6 * true_se);
  EXPECT_LT(blocked.std_error, 1.6 * true_se);
}

// --- serialization -----------------------------------------------------------

/// Undo json_quote's escapes (the subset it emits) — the test's oracle.
std::string json_unquote(const std::string& quoted) {
  std::string out;
  for (std::size_t i = 1; i + 1 < quoted.size(); ++i) {
    if (quoted[i] != '\\') {
      out += quoted[i];
      continue;
    }
    const char e = quoted[++i];
    if (e == 'n') out += '\n';
    else if (e == 'r') out += '\r';
    else if (e == 't') out += '\t';
    else if (e == 'u') {
      out += static_cast<char>(std::stoi(quoted.substr(i + 1, 4), nullptr, 16));
      i += 4;
    } else {
      out += e;
    }
  }
  return out;
}

TEST(Json, QuoteEscapesEveryAsciiByteAndRoundTrips) {
  std::string raw;
  for (int c = 0x01; c <= 0x7F; ++c) raw += static_cast<char>(c);
  raw += "\"\\";
  const std::string quoted = spice::json_quote(raw);
  const std::string doc = "{" + quoted + ":" + quoted + "}";
  std::string error;
  EXPECT_TRUE(spice::json_is_valid(doc, &error)) << error << "\n" << doc;
  const std::string back = json_unquote(quoted);
  EXPECT_EQ(back.size(), raw.size());
  EXPECT_EQ(back, raw);
}

TEST(Serialize, RoundTripAllTypes) {
  BinaryWriter w;
  w.write_u8(7);
  w.write_u32(123456);
  w.write_u64(0xdeadbeefcafebabeULL);
  w.write_i64(-42);
  w.write_f64(3.141592653589793);
  w.write_string("hemolysin");
  w.write_vec3({1.0, -2.0, 0.5});
  const std::vector<double> xs{1.5, 2.5, -3.5};
  w.write_f64_span(xs);
  const std::vector<Vec3> vs{{1, 2, 3}, {4, 5, 6}};
  w.write_vec3_span(vs);

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u32(), 123456u);
  EXPECT_EQ(r.read_u64(), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.141592653589793);
  EXPECT_EQ(r.read_string(), "hemolysin");
  EXPECT_EQ(r.read_vec3(), Vec3(1.0, -2.0, 0.5));
  EXPECT_EQ(r.read_f64_vector(), xs);
  EXPECT_EQ(r.read_vec3_vector(), vs);
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, TruncatedInputThrows) {
  BinaryWriter w;
  w.write_u64(1);
  BinaryReader r(std::span<const std::uint8_t>(w.bytes().data(), 4));
  EXPECT_THROW(r.read_u64(), Error);
}

TEST(Serialize, SpecialFloats) {
  BinaryWriter w;
  w.write_f64(std::numeric_limits<double>::infinity());
  w.write_f64(-0.0);
  BinaryReader r(w.bytes());
  EXPECT_TRUE(std::isinf(r.read_f64()));
  EXPECT_EQ(std::signbit(r.read_f64()), true);
}

// --- thread pool --------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesSmallAndEmptyRanges) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.parallel_for(0, [&](std::size_t, std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 0);
  pool.parallel_for(1, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(total.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t lo, std::size_t) {
                                   if (lo == 0) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Pool remains usable afterwards.
  std::atomic<int> total{0};
  pool.parallel_for(10, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, EmptyRangeNeverInvokesTheBody) {
  // n == 0 must return without dispatching anything to the workers (the
  // instrumented parallel_for has an early-out before any queueing).
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  for (int i = 0; i < 100; ++i) {
    pool.parallel_for(0, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  }
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleRangeRunsInlineOnTheCaller) {
  // When the partition collapses to one chunk the body must run on the
  // calling thread — no handoff, no pool synchronization.
  ThreadPool pool(8);
  std::thread::id body_thread;
  pool.parallel_for(1, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 1u);
    body_thread = std::this_thread::get_id();
  });
  EXPECT_EQ(body_thread, std::this_thread::get_id());
}

TEST(ThreadPool, ExceptionFirstWinsAcrossChunks) {
  // Every chunk throws; exactly one exception must surface (the first one
  // recorded), and the others are swallowed after all chunks complete.
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    bool caught = false;
    try {
      pool.parallel_for(1000, [](std::size_t lo, std::size_t) {
        throw std::runtime_error("chunk@" + std::to_string(lo));
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_EQ(std::string(e.what()).rfind("chunk@", 0), 0u);
    }
    EXPECT_TRUE(caught);
  }
  // And the pool still works.
  std::atomic<int> total{0};
  pool.parallel_for(64, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(257, [&](std::size_t lo, std::size_t hi) {
      long local = 0;
      for (std::size_t i = lo; i < hi; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 257L * 256L / 2L);
  }
}

// --- units ---------------------------------------------------------------------

TEST(Units, SpringConstantRoundTrip) {
  const double internal = units::spring_pn_per_angstrom(100.0);
  EXPECT_NEAR(internal, 1.4393, 1e-3);  // 100 pN/Å in kcal/mol/Å²
  EXPECT_NEAR(units::spring_to_pn_per_angstrom(internal), 100.0, 1e-10);
}

TEST(Units, VelocityRoundTrip) {
  EXPECT_DOUBLE_EQ(units::velocity_angstrom_per_ns(12.5), 0.0125);
  EXPECT_DOUBLE_EQ(units::velocity_to_angstrom_per_ns(0.0125), 12.5);
}

TEST(Units, ThermalEnergyAt300K) {
  EXPECT_NEAR(units::kT(300.0), 0.5962, 1e-3);
}

TEST(Units, MembraneVoltage) {
  // 120 mV × e ≈ 2.77 kcal/mol.
  EXPECT_NEAR(units::voltage_mv_to_kcal_per_e(120.0), 2.767, 0.01);
}

TEST(Units, ForceConversion) {
  EXPECT_NEAR(units::force_to_pn(1.0), 69.48, 0.01);
}

// --- error macros -----------------------------------------------------------------

TEST(Errors, RequireAndEnsureThrowTypedErrors) {
  EXPECT_THROW(SPICE_REQUIRE(false, "msg"), PreconditionError);
  EXPECT_THROW(SPICE_ENSURE(false, "msg"), InvariantError);
  EXPECT_NO_THROW(SPICE_REQUIRE(true, "msg"));
  try {
    SPICE_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"), std::string::npos);
  }
}

}  // namespace
