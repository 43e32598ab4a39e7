#pragma once
// Deterministic, splittable random number generation.
//
// Reproducibility across runs and across thread counts is a hard
// requirement for this library (checkpoint/clone verification, CI, and the
// paper-reproduction benches all depend on it). We therefore avoid
// std::mt19937 seeded from global state and instead use:
//
//   * SplitMix64 — seed expansion / stream derivation,
//   * Xoshiro256** — the workhorse generator (fast, 256-bit state),
//
// with explicit *stream derivation*: Rng::stream(seed, id...) produces an
// independent generator for (replica, particle-block, purpose) tuples, so
// the random force applied to particle i at step t never depends on how
// work was partitioned across threads.

#include <array>
#include <cstdint>

namespace spice {

/// SplitMix64: used to expand seeds and derive sub-streams.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** PRNG with explicit stream derivation and Gaussian sampling.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a single seed; state is expanded with SplitMix64.
  explicit Rng(std::uint64_t seed);

  /// Derive an independent stream from (seed, a, b, c). Identical arguments
  /// always give an identical stream; distinct tuples give streams that are
  /// statistically independent for all practical purposes.
  static Rng stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                    std::uint64_t c = 0);

  /// stream(seed, a, ·, c) with the (seed, a, c) coordinates mixed once, for
  /// loops that derive one stream per b at fixed (seed, a, c) — e.g. one
  /// noise stream per particle at one timestep. family.at(b) is
  /// bit-identical to stream(seed, a, b, c).
  class StreamFamily {
   public:
    StreamFamily(std::uint64_t seed, std::uint64_t a, std::uint64_t c);
    [[nodiscard]] Rng at(std::uint64_t b) const;

   private:
    std::uint64_t mixed_;  ///< seed, a and c contributions, already combined
  };

  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal deviate (polar Box–Muller with caching).
  double gaussian();

  /// Normal deviate with the given mean and standard deviation.
  double gaussian(double mean, double stddev) { return mean + stddev * gaussian(); }

  /// Exponential deviate with the given mean. Requires mean > 0.
  double exponential(double mean);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  // UniformRandomBitGenerator interface (usable with <algorithm> shuffles).
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }
  std::uint64_t operator()() { return next_u64(); }

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace spice
