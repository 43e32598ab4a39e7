// NEON (aarch64) implementations of the batched MD kernels. Two-wide
// double lanes; the exp is evaluated per lane with std::exp (no
// double-precision vector exp in base NEON — the win here is the
// vectorized distance/WCA arithmetic and the packed parameter streams).
// Masking follows the AVX2 TU: dead lanes are zeroed by bitwise AND with
// comparison masks and divisions are guarded, so lane contributions are
// decided by the masks alone.

#include "md/simd.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

namespace spice::md::simd::detail {

namespace {

/// base[3a], base[3b]: one coordinate of two particles in the stride-3
/// Vec3 position row (base = &pos[0].x, + 1 for y, + 2 for z).
inline float64x2_t gather2(const double* base, std::uint32_t a, std::uint32_t b) {
  const float64x2_t lo = vld1q_dup_f64(base + 3 * std::size_t{a});
  return vsetq_lane_f64(base[3 * std::size_t{b}], lo, 1);
}

inline float64x2_t exp2_lanes(float64x2_t x) {
  float64x2_t out = vdupq_n_f64(std::exp(vgetq_lane_f64(x, 0)));
  return vsetq_lane_f64(std::exp(vgetq_lane_f64(x, 1)), out, 1);
}

inline float64x2_t masked(uint64x2_t mask, float64x2_t v) {
  return vreinterpretq_f64_u64(vandq_u64(mask, vreinterpretq_u64_f64(v)));
}

inline uint64x2_t not_u64(uint64x2_t m) {
  return vreinterpretq_u64_u32(vmvnq_u32(vreinterpretq_u32_u64(m)));
}

}  // namespace

double nonbonded_neon(const PairBatch& batch, const NonbondedConsts& c, Vec3* acc) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  const float64x2_t tiny = vdupq_n_f64(1e-300);
  const float64x2_t cutoff2 = vdupq_n_f64(c.cutoff2);
  const float64x2_t epsilon = vdupq_n_f64(c.epsilon);
  const float64x2_t four_eps = vdupq_n_f64(4.0 * c.epsilon);
  const float64x2_t twentyfour_eps = vdupq_n_f64(24.0 * c.epsilon);
  const float64x2_t inv_lambda = vdupq_n_f64(c.inv_lambda);
  const float64x2_t shift = vdupq_n_f64(c.shift_per_pref);
  const float64x2_t wca_lift = vdupq_n_f64(c.wca_lift);
  const float64x2_t one = vdupq_n_f64(1.0);
  const double* base = &batch.pos[0].x;

  float64x2_t energy = zero;
  std::size_t p = 0;
  for (; p + 2 <= batch.count; p += 2) {
    const std::uint32_t i0 = batch.i[p];
    const std::uint32_t i1 = batch.i[p + 1];
    const std::uint32_t j0 = batch.j[p];
    const std::uint32_t j1 = batch.j[p + 1];
    const float64x2_t dx = vsubq_f64(gather2(base, i0, i1), gather2(base, j0, j1));
    const float64x2_t dy = vsubq_f64(gather2(base + 1, i0, i1), gather2(base + 1, j0, j1));
    const float64x2_t dz = vsubq_f64(gather2(base + 2, i0, i1), gather2(base + 2, j0, j1));
    float64x2_t r2 = vmulq_f64(dx, dx);
    r2 = vfmaq_f64(r2, dy, dy);
    r2 = vfmaq_f64(r2, dz, dz);

    const uint64x2_t live = vandq_u64(vcltq_f64(r2, cutoff2), vcgtq_f64(r2, zero));
    if (vgetq_lane_u64(live, 0) == 0 && vgetq_lane_u64(live, 1) == 0) continue;
    const float64x2_t r2s = vmaxq_f64(r2, tiny);

    const float64x2_t sig = vld1q_f64(batch.sigma + p);
    const float64x2_t sig2 = vmulq_f64(sig, sig);
    const float64x2_t s2 = vdivq_f64(sig2, r2s);
    const float64x2_t s6 = vmulq_f64(s2, vmulq_f64(s2, s2));
    const float64x2_t s12 = vmulq_f64(s6, s6);
    const uint64x2_t wca_on = vandq_u64(live, vcltq_f64(r2, vmulq_f64(sig2, wca_lift)));
    const float64x2_t e_wca =
        masked(wca_on, vfmaq_f64(epsilon, four_eps, vsubq_f64(s12, s6)));
    const float64x2_t f_wca = masked(
        wca_on,
        vdivq_f64(vmulq_f64(twentyfour_eps, vsubq_f64(vaddq_f64(s12, s12), s6)), r2s));

    const float64x2_t pref = vld1q_f64(batch.pref + p);
    const uint64x2_t dh_on = vandq_u64(live, not_u64(vceqq_f64(pref, zero)));
    const float64x2_t r = vsqrtq_f64(r2s);
    const float64x2_t inv_r = vdivq_f64(one, r);
    const float64x2_t u_r = vmulq_f64(
        pref, vmulq_f64(exp2_lanes(vnegq_f64(vmulq_f64(inv_lambda, r))), inv_r));
    const float64x2_t e_dh = masked(dh_on, vfmsq_f64(u_r, pref, shift));
    const float64x2_t f_dh =
        masked(dh_on, vmulq_f64(u_r, vmulq_f64(vaddq_f64(inv_r, inv_lambda), inv_r)));

    energy = vaddq_f64(energy, vaddq_f64(e_wca, e_dh));
    const float64x2_t fmag = vaddq_f64(f_wca, f_dh);
    double fx[2];
    double fy[2];
    double fz[2];
    vst1q_f64(fx, vmulq_f64(dx, fmag));
    vst1q_f64(fy, vmulq_f64(dy, fmag));
    vst1q_f64(fz, vmulq_f64(dz, fmag));
    for (int lane = 0; lane < 2; ++lane) {
      const Vec3 f{fx[lane], fy[lane], fz[lane]};
      acc[batch.i[p + lane]] += f;
      acc[batch.j[p + lane]] -= f;
    }
  }
  double total = vgetq_lane_f64(energy, 0) + vgetq_lane_f64(energy, 1);
  total += nonbonded_scalar_range(batch, c, acc, p, batch.count);
  return total;
}

double bond_neon(const BondBatch& batch, Vec3* acc) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  const float64x2_t tiny = vdupq_n_f64(1e-300);
  const float64x2_t minus_two = vdupq_n_f64(-2.0);
  const double* base = &batch.pos[0].x;

  float64x2_t energy = zero;
  std::size_t b = 0;
  for (; b + 2 <= batch.count; b += 2) {
    const std::uint32_t i0 = batch.i[b];
    const std::uint32_t i1 = batch.i[b + 1];
    const std::uint32_t j0 = batch.j[b];
    const std::uint32_t j1 = batch.j[b + 1];
    const float64x2_t dx = vsubq_f64(gather2(base, i0, i1), gather2(base, j0, j1));
    const float64x2_t dy = vsubq_f64(gather2(base + 1, i0, i1), gather2(base + 1, j0, j1));
    const float64x2_t dz = vsubq_f64(gather2(base + 2, i0, i1), gather2(base + 2, j0, j1));
    float64x2_t r2 = vmulq_f64(dx, dx);
    r2 = vfmaq_f64(r2, dy, dy);
    r2 = vfmaq_f64(r2, dz, dz);
    const uint64x2_t live = vcgtq_f64(r2, zero);
    const float64x2_t r = vsqrtq_f64(vmaxq_f64(r2, tiny));
    const float64x2_t k = vld1q_f64(batch.k + b);
    const float64x2_t ext = vsubq_f64(r, vld1q_f64(batch.r0 + b));
    energy = vaddq_f64(energy, masked(live, vmulq_f64(k, vmulq_f64(ext, ext))));
    const float64x2_t fmag =
        masked(live, vdivq_f64(vmulq_f64(minus_two, vmulq_f64(k, ext)), r));
    double fx[2];
    double fy[2];
    double fz[2];
    vst1q_f64(fx, vmulq_f64(dx, fmag));
    vst1q_f64(fy, vmulq_f64(dy, fmag));
    vst1q_f64(fz, vmulq_f64(dz, fmag));
    for (int lane = 0; lane < 2; ++lane) {
      const Vec3 f{fx[lane], fy[lane], fz[lane]};
      acc[batch.i[b + lane]] += f;
      acc[batch.j[b + lane]] -= f;
    }
  }
  double total = vgetq_lane_f64(energy, 0) + vgetq_lane_f64(energy, 1);
  total += bond_scalar_range(batch, acc, b, batch.count);
  return total;
}

}  // namespace spice::md::simd::detail

#else  // non-aarch64: aborting stubs; supported(Level::NEON) is false here.

#include "common/error.hpp"

namespace spice::md::simd::detail {

double nonbonded_neon(const PairBatch&, const NonbondedConsts&, Vec3*) {
  SPICE_REQUIRE(false, "NEON kernel called on a non-aarch64 build");
  return 0.0;
}

double bond_neon(const BondBatch&, Vec3*) {
  SPICE_REQUIRE(false, "NEON kernel called on a non-aarch64 build");
  return 0.0;
}

}  // namespace spice::md::simd::detail

#endif
