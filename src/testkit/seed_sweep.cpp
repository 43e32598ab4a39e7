#include "testkit/seed_sweep.hpp"

#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace spice::testkit {

std::size_t sweep_seed_count(std::size_t fallback) {
  if (const char* env = std::getenv("SPICE_SWEEP_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

std::vector<std::size_t> sweep_thread_counts(std::vector<std::size_t> fallback) {
  const char* env = std::getenv("SPICE_SWEEP_THREADS");
  if (env == nullptr) return fallback;
  std::vector<std::size_t> counts;
  const std::string text(env);
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string token = text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const long parsed = std::strtol(token.c_str(), nullptr, 10);
    if (parsed > 0) counts.push_back(static_cast<std::size_t>(parsed));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return counts.empty() ? fallback : counts;
}

SeedSweep::SeedSweep(SweepConfig config) : config_(config) {
  const std::size_t n = sweep_seed_count(config_.seeds);
  SPICE_REQUIRE(n >= 1, "seed sweep needs at least one seed");
  // Mix the stream id into the SplitMix64 state so two sweeps sharing a
  // base seed still draw unrelated seed lists.
  SplitMix64 mixer(config_.base_seed ^ (config_.stream * 0x9e3779b97f4a7c15ULL));
  seeds_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) seeds_.push_back(mixer.next());
}

std::vector<double> SeedSweep::collect(
    const std::function<double(std::uint64_t)>& sample) const {
  static obs::Counter& runs = obs::metrics().counter("testkit.sweep.runs");
  static obs::Counter& seeds_run = obs::metrics().counter("testkit.sweep.seeds");
  runs.add(1);
  std::vector<double> values;
  values.reserve(seeds_.size());
  for (const std::uint64_t seed : seeds_) {
    values.push_back(sample(seed));
    seeds_run.add(1);
  }
  return values;
}

}  // namespace spice::testkit
