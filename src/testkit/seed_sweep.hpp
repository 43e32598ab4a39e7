#pragma once
// Seed-sweep drivers: run a stochastic experiment over N independent,
// deterministically derived seeds and hand the per-seed results to the
// stat_assert comparators. A physics test built this way fails only on a
// statistically significant deviation, never on one unlucky trajectory —
// and because the seed list is a pure function of (base_seed, stream,
// index), a failure replays bit-identically.
//
// Scale knobs (read once per process):
//   SPICE_SWEEP_SEEDS    — override every sweep's seed count (the nightly
//                          CI job sets 100; tier-1 uses each test's default)
//   SPICE_SWEEP_THREADS  — comma list, e.g. "1,2,8", overriding the thread
//                          counts the invariant suite parameterizes over

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace spice::testkit {

struct SweepConfig {
  std::size_t seeds = 12;          ///< default; SPICE_SWEEP_SEEDS overrides
  std::uint64_t base_seed = 2005;
  std::uint64_t stream = 0;        ///< distinguishes sweeps sharing a base seed
};

/// Seed count after applying the SPICE_SWEEP_SEEDS override (if set).
[[nodiscard]] std::size_t sweep_seed_count(std::size_t fallback);

/// Thread counts after applying the SPICE_SWEEP_THREADS override (if set).
[[nodiscard]] std::vector<std::size_t> sweep_thread_counts(std::vector<std::size_t> fallback);

class SeedSweep {
 public:
  explicit SeedSweep(SweepConfig config);

  /// The derived seed list (SplitMix64 over (base_seed, stream)).
  [[nodiscard]] const std::vector<std::uint64_t>& seeds() const { return seeds_; }

  /// One scalar per seed.
  [[nodiscard]] std::vector<double> collect(
      const std::function<double(std::uint64_t seed)>& sample) const;

 private:
  SweepConfig config_;
  std::vector<std::uint64_t> seeds_;
};

}  // namespace spice::testkit
