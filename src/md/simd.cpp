#include "md/simd.hpp"

#include <cmath>
#include <cstdlib>
#include <string>

#include "common/error.hpp"

namespace spice::md::simd {

std::string_view name(Level level) {
  switch (level) {
    case Level::Scalar: return "scalar";
    case Level::AVX2: return "avx2";
    case Level::NEON: return "neon";
  }
  return "unknown";
}

bool supported(Level level) {
  switch (level) {
    case Level::Scalar:
      return true;
    case Level::AVX2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Level::NEON:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Level detect() {
  if (supported(Level::AVX2)) return Level::AVX2;
  if (supported(Level::NEON)) return Level::NEON;
  return Level::Scalar;
}

namespace {

Level resolve_env() {
  const char* env = std::getenv("SPICE_SIMD");
  if (env == nullptr || *env == '\0') return detect();
  const std::string_view text(env);
  if (text == "native" || text == "auto") return detect();
  if (text == "scalar") return Level::Scalar;
  Level forced = Level::Scalar;
  if (text == "avx2") {
    forced = Level::AVX2;
  } else if (text == "neon") {
    forced = Level::NEON;
  } else {
    SPICE_REQUIRE(false, "SPICE_SIMD must be scalar, avx2, neon or native");
  }
  SPICE_REQUIRE(supported(forced), "SPICE_SIMD forces a level this CPU lacks");
  return forced;
}

}  // namespace

Level active() {
  // Resolved exactly once; every engine constructed with Request::Auto in
  // this process dispatches identically (the determinism contract needs a
  // process-stable choice, not a per-call one).
  static const Level level = resolve_env();
  return level;
}

Level resolve(Request request) {
  switch (request) {
    case Request::Auto:
      return active();
    case Request::Scalar:
      return Level::Scalar;
    case Request::AVX2:
      SPICE_REQUIRE(supported(Level::AVX2), "AVX2 requested but not supported by this CPU");
      return Level::AVX2;
    case Request::NEON:
      SPICE_REQUIRE(supported(Level::NEON), "NEON requested but not supported by this CPU");
      return Level::NEON;
  }
  return Level::Scalar;
}

NonbondedFn nonbonded_kernel(Level level) {
  SPICE_REQUIRE(supported(level), "nonbonded kernel for unsupported SIMD level");
  switch (level) {
    case Level::AVX2: return &detail::nonbonded_avx2;
    case Level::NEON: return &detail::nonbonded_neon;
    case Level::Scalar: break;
  }
  return &detail::nonbonded_scalar;
}

BondFn bond_kernel(Level level) {
  SPICE_REQUIRE(supported(level), "bond kernel for unsupported SIMD level");
  switch (level) {
    case Level::AVX2: return &detail::bond_avx2;
    case Level::NEON: return &detail::bond_neon;
    case Level::Scalar: break;
  }
  return &detail::bond_scalar;
}

namespace detail {

// The scalar bodies are the Level::Scalar path and the vector kernels'
// remainder lanes. Their guards, the order of adds into the running energy
// and the force composition match the reference loops of
// KernelPipeline.ScalarKernelsMatchReferenceLoopsBitwise operation for
// operation; that test and the golden registry pin the bits.

double nonbonded_scalar_range(const PairBatch& batch, const NonbondedConsts& c, Vec3* acc,
                              std::size_t begin, std::size_t end) {
  double energy = 0.0;
  for (std::size_t p = begin; p < end; ++p) {
    const std::uint32_t i = batch.i[p];
    const std::uint32_t j = batch.j[p];
    const Vec3 dr = batch.pos[i] - batch.pos[j];
    const double r2 = dr.norm2();
    if (r2 >= c.cutoff2 || r2 <= 0.0) continue;
    Vec3 f;
    const double sigma = batch.sigma[p];
    const double wca_rc2 = sigma * sigma * c.wca_lift;
    if (r2 < wca_rc2) {
      const double s2 = sigma * sigma / r2;
      const double s6 = s2 * s2 * s2;
      const double s12 = s6 * s6;
      energy += 4.0 * c.epsilon * (s12 - s6) + c.epsilon;
      f += dr * (24.0 * c.epsilon * (2.0 * s12 - s6) / r2);
    }
    const double pref = batch.pref[p];
    if (pref != 0.0) {
      const double r = std::sqrt(r2);
      const double u_r = pref * std::exp(-r * c.inv_lambda) / r;
      energy += u_r - pref * c.shift_per_pref;
      f += dr * (u_r * (1.0 / r + c.inv_lambda) / r);
    }
    acc[i] += f;
    acc[j] -= f;
  }
  return energy;
}

double nonbonded_scalar(const PairBatch& batch, const NonbondedConsts& c, Vec3* acc) {
  return nonbonded_scalar_range(batch, c, acc, 0, batch.count);
}

double bond_scalar_range(const BondBatch& batch, Vec3* acc, std::size_t begin,
                         std::size_t end) {
  double energy = 0.0;
  for (std::size_t b = begin; b < end; ++b) {
    const std::uint32_t i = batch.i[b];
    const std::uint32_t j = batch.j[b];
    const Vec3 dr = batch.pos[i] - batch.pos[j];
    const double r = dr.norm();
    if (r <= 0.0) continue;  // coincident sites: no well-defined force
    const double x = r - batch.r0[b];
    energy += batch.k[b] * x * x;
    const Vec3 f = dr * (-2.0 * batch.k[b] * x / r);
    acc[i] += f;
    acc[j] -= f;
  }
  return energy;
}

double bond_scalar(const BondBatch& batch, Vec3* acc) {
  return bond_scalar_range(batch, acc, 0, batch.count);
}

}  // namespace detail

}  // namespace spice::md::simd
