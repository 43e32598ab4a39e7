#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace spice {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return StreamFamily(seed, a, c).at(b);
}

// Mix the stream coordinates through SplitMix64 so that nearby tuples
// (e.g. consecutive particle blocks) land in unrelated regions of seed
// space before state expansion. The per-coordinate terms are combined by
// XOR, so folding the b term in last gives the same word as any order.
Rng::StreamFamily::StreamFamily(std::uint64_t seed, std::uint64_t a, std::uint64_t c) {
  SplitMix64 sm(seed);
  mixed_ = sm.next();
  mixed_ ^= SplitMix64(a ^ 0x8af0d8bc04c1e7c9ULL).next();
  mixed_ ^= rotl(SplitMix64(c ^ 0x94d6a1c7b1e55af3ULL).next(), 41);
}

Rng Rng::StreamFamily::at(std::uint64_t b) const {
  return Rng(mixed_ ^ rotl(SplitMix64(b ^ 0x3b97acd53f7ae9d1ULL).next(), 17));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits → double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  SPICE_REQUIRE(n > 0, "uniform_index needs n > 0");
  // Rejection-free multiply-shift (Lemire); bias is < 2^-64 and irrelevant
  // for simulation workloads.
  const unsigned __int128 product =
      static_cast<unsigned __int128>(next_u64()) * static_cast<unsigned __int128>(n);
  return static_cast<std::uint64_t>(product >> 64);
}

double Rng::gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Polar Box–Muller.
  double u = 0.0;
  double v = 0.0;
  double r2 = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    r2 = u * u + v * v;
  } while (r2 >= 1.0 || r2 == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(r2) / r2);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Rng::exponential(double mean) {
  SPICE_REQUIRE(mean > 0.0, "exponential needs mean > 0");
  double u = uniform();
  // uniform() can return exactly 0; log(0) is -inf, so nudge.
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

}  // namespace spice
