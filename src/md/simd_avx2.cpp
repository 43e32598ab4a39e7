// AVX2 + FMA implementations of the batched MD kernels (see simd.hpp).
// This translation unit is the ONLY one compiled with -mavx2 -mfma (see
// src/md/CMakeLists.txt); the dispatch tables in simd.cpp hand these
// functions out only when runtime detection reports AVX2+FMA, so the rest
// of the binary stays runnable on any x86-64.
//
// The nonbonded kernel is MIXED PRECISION, the standard coarse-grained MD
// trade (cf. GROMACS): endpoint coordinates are loaded as 32-byte rows
// straight from the Vec3 position row and differenced in double (no
// cancellation on absolute positions), the per-pair WCA + Debye–Hückel
// math runs 8-wide in fp32, and the force magnitude is widened back to
// double before the deterministic scatter-add. Profiling
// on the target hosts showed the double pipeline is gated by the
// unpipelined vector divider (div+sqrt+exp ≈ 22 cycles per 4 lanes); in
// fp32 a Newton-refined rsqrt and a polynomial expf make the whole pair
// term divider-free. Max relative force error vs the scalar kernel is
// ~2e-7 — far below the thermal noise the Langevin integrator injects —
// and the testkit SIMD-agreement test pins it to a 1e-5 ladder rung.
// Dead lanes (beyond cutoff, r² = 0, outside the WCA shell, uncharged)
// are masked to exact zeros, so masks alone decide a lane's contribution.
// Force scatter-add is scalar per lane — pairs within a group may share
// endpoints, so a vectorized scatter would lose colliding updates.

#include "md/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace spice::md::simd::detail {

namespace {

inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swap = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swap));
}

/// expf(x) over 8 fp32 lanes, Cephes expf scheme (degree-5 polynomial
/// after n·ln2 range reduction, 2^n through the exponent field). ~2e-7
/// relative over the DH domain; division-free.
inline __m256 exp_ps8(__m256 x) {
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  x = _mm256_max_ps(_mm256_min_ps(x, _mm256_set1_ps(88.0f)), _mm256_set1_ps(-88.0f));
  const __m256 n = _mm256_round_ps(_mm256_mul_ps(x, log2e),
                                   _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm256_fnmadd_ps(n, c1, x);
  x = _mm256_fnmadd_ps(n, c2, x);
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(5.0000001201e-1f));
  p = _mm256_fmadd_ps(p, x2, _mm256_add_ps(x, _mm256_set1_ps(1.0f)));
  const __m256i ni = _mm256_cvtps_epi32(n);
  const __m256i pow2 = _mm256_slli_epi32(_mm256_add_epi32(ni, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(pow2));
}

/// Widen the two fp32 half-vectors of an 8-lane value back to double.
inline __m256d widen_lo(__m256 v) { return _mm256_cvtps_pd(_mm256_castps256_ps128(v)); }
inline __m256d widen_hi(__m256 v) { return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)); }

static_assert(sizeof(Vec3) == 3 * sizeof(double), "Vec3 rows are read as stride-3 doubles");

/// Position row of particle `i` as (x, y, z, ·): one 32-byte load whose
/// fourth lane is the next row entry's x (the arena pad for the last
/// particle). Callers discard that lane.
inline __m256d load_row(const Vec3* pos, std::uint32_t i) { return _mm256_loadu_pd(&pos[i].x); }

/// base[idx[lane]] for all 4 lanes. The all-ones mask loads every lane, so
/// this equals _mm256_i32gather_pd, whose undefined pass-through source
/// GCC reports as maybe-uninitialized.
inline __m256d gather_pd(const double* base, __m128i idx) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx, all, 8);
}

}  // namespace

double nonbonded_avx2(const PairBatch& batch, const NonbondedConsts& c, Vec3* acc) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 cutoff2 = _mm256_set1_ps(static_cast<float>(c.cutoff2));
  const __m256 epsilon = _mm256_set1_ps(static_cast<float>(c.epsilon));
  const __m256 four_eps = _mm256_set1_ps(static_cast<float>(4.0 * c.epsilon));
  const __m256 twentyfour_eps = _mm256_set1_ps(static_cast<float>(24.0 * c.epsilon));
  const __m256 inv_lambda = _mm256_set1_ps(static_cast<float>(c.inv_lambda));
  const __m256 neg_inv_lambda = _mm256_set1_ps(static_cast<float>(-c.inv_lambda));
  const __m256 shift = _mm256_set1_ps(static_cast<float>(c.shift_per_pref));
  const __m256 wca_lift = _mm256_set1_ps(static_cast<float>(c.wca_lift));
  // r² floor: 0.01 Å of separation. Keeps s¹² finite in fp32 (overlapping
  // beads get a huge-but-finite repulsion instead of Inf−Inf = NaN); real
  // trajectories never get near it.
  const __m256 r2_floor = _mm256_set1_ps(1e-4f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 three_half = _mm256_set1_ps(1.5f);

  const Vec3* P = batch.pos;
  __m256d energy = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 8 <= batch.count; p += 8) {
    // Displacements in double from the position row: one 32-byte load per
    // endpoint and a subtract give a pair's (dx,dy,dz,·) row; a 4x4
    // transpose turns four rows into lane form and drops the fourth lane.
    // Differencing in double first costs no bits (dx ≤ cutoff while the
    // absolute coordinates are not) and replaces twelve gathers with
    // sixteen plain loads per eight pairs.
    __m256d d0 = _mm256_sub_pd(load_row(P, batch.i[p + 0]), load_row(P, batch.j[p + 0]));
    __m256d d1 = _mm256_sub_pd(load_row(P, batch.i[p + 1]), load_row(P, batch.j[p + 1]));
    __m256d d2 = _mm256_sub_pd(load_row(P, batch.i[p + 2]), load_row(P, batch.j[p + 2]));
    __m256d d3 = _mm256_sub_pd(load_row(P, batch.i[p + 3]), load_row(P, batch.j[p + 3]));
    __m256d t0 = _mm256_unpacklo_pd(d0, d1);  // x0 x1 z0 z1
    __m256d t1 = _mm256_unpackhi_pd(d0, d1);  // y0 y1 ·  ·
    __m256d t2 = _mm256_unpacklo_pd(d2, d3);
    __m256d t3 = _mm256_unpackhi_pd(d2, d3);
    const __m256d dx_lo = _mm256_permute2f128_pd(t0, t2, 0x20);
    const __m256d dy_lo = _mm256_permute2f128_pd(t1, t3, 0x20);
    const __m256d dz_lo = _mm256_permute2f128_pd(t0, t2, 0x31);
    d0 = _mm256_sub_pd(load_row(P, batch.i[p + 4]), load_row(P, batch.j[p + 4]));
    d1 = _mm256_sub_pd(load_row(P, batch.i[p + 5]), load_row(P, batch.j[p + 5]));
    d2 = _mm256_sub_pd(load_row(P, batch.i[p + 6]), load_row(P, batch.j[p + 6]));
    d3 = _mm256_sub_pd(load_row(P, batch.i[p + 7]), load_row(P, batch.j[p + 7]));
    t0 = _mm256_unpacklo_pd(d0, d1);
    t1 = _mm256_unpackhi_pd(d0, d1);
    t2 = _mm256_unpacklo_pd(d2, d3);
    t3 = _mm256_unpackhi_pd(d2, d3);
    const __m256d dx_hi = _mm256_permute2f128_pd(t0, t2, 0x20);
    const __m256d dy_hi = _mm256_permute2f128_pd(t1, t3, 0x20);
    const __m256d dz_hi = _mm256_permute2f128_pd(t0, t2, 0x31);
    const __m256 dx = _mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(dx_lo)),
                                           _mm256_cvtpd_ps(dx_hi), 1);
    const __m256 dy = _mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(dy_lo)),
                                           _mm256_cvtpd_ps(dy_hi), 1);
    const __m256 dz = _mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(dz_lo)),
                                           _mm256_cvtpd_ps(dz_hi), 1);
    __m256 r2 = _mm256_mul_ps(dx, dx);
    r2 = _mm256_fmadd_ps(dy, dy, r2);
    r2 = _mm256_fmadd_ps(dz, dz, r2);

    const __m256 live = _mm256_and_ps(_mm256_cmp_ps(r2, cutoff2, _CMP_LT_OQ),
                                      _mm256_cmp_ps(r2, zero, _CMP_GT_OQ));
    const int mask = _mm256_movemask_ps(live);
    if (mask == 0) continue;
    const __m256 r2s = _mm256_max_ps(r2, r2_floor);

    // Divider-free 1/r: rsqrt seed + one Newton step lands at fp32
    // precision (~2e-7). 1/r² and r both derive from it.
    __m256 inv_r = _mm256_rsqrt_ps(r2s);
    inv_r = _mm256_mul_ps(inv_r,
                          _mm256_fnmadd_ps(_mm256_mul_ps(half, r2s),
                                           _mm256_mul_ps(inv_r, inv_r), three_half));
    const __m256 inv_r2 = _mm256_mul_ps(inv_r, inv_r);
    const __m256 r = _mm256_mul_ps(r2s, inv_r);

    // WCA: 4ε(s¹² − s⁶) + ε inside r² < 2^{1/3}σ².
    const __m256 sig2 = _mm256_loadu_ps(batch.sig2f + p);
    const __m256 s2 = _mm256_mul_ps(sig2, inv_r2);
    const __m256 s6 = _mm256_mul_ps(s2, _mm256_mul_ps(s2, s2));
    const __m256 s12 = _mm256_mul_ps(s6, s6);
    const __m256 wca_on = _mm256_and_ps(
        live, _mm256_cmp_ps(r2, _mm256_mul_ps(sig2, wca_lift), _CMP_LT_OQ));
    const __m256 e_wca = _mm256_and_ps(
        wca_on, _mm256_fmadd_ps(four_eps, _mm256_sub_ps(s12, s6), epsilon));
    const __m256 f_wca = _mm256_and_ps(
        wca_on,
        _mm256_mul_ps(
            _mm256_mul_ps(twentyfour_eps, _mm256_sub_ps(_mm256_add_ps(s12, s12), s6)),
            inv_r2));

    // Debye–Hückel: pref·e^{−r/λ}/r − pref·shift on charged pairs.
    const __m256 pref = _mm256_loadu_ps(batch.pref_f + p);
    const __m256 dh_on = _mm256_and_ps(live, _mm256_cmp_ps(pref, zero, _CMP_NEQ_OQ));
    const __m256 u_r =
        _mm256_mul_ps(pref, _mm256_mul_ps(exp_ps8(_mm256_mul_ps(neg_inv_lambda, r)), inv_r));
    const __m256 e_dh = _mm256_and_ps(dh_on, _mm256_fnmadd_ps(pref, shift, u_r));
    const __m256 f_dh = _mm256_and_ps(
        dh_on, _mm256_mul_ps(u_r, _mm256_mul_ps(_mm256_add_ps(inv_r, inv_lambda), inv_r)));

    const __m256 e_pair = _mm256_add_ps(e_wca, e_dh);
    energy = _mm256_add_pd(energy, widen_lo(e_pair));
    energy = _mm256_add_pd(energy, widen_hi(e_pair));

    // Widen the force magnitude and apply it to the DOUBLE displacement:
    // the accumulated forces stay full precision downstream.
    const __m256 fmag = _mm256_add_ps(f_wca, f_dh);
    alignas(32) double fx[8];
    alignas(32) double fy[8];
    alignas(32) double fz[8];
    const __m256d fmag_lo = widen_lo(fmag);
    const __m256d fmag_hi = widen_hi(fmag);
    _mm256_store_pd(fx, _mm256_mul_pd(dx_lo, fmag_lo));
    _mm256_store_pd(fx + 4, _mm256_mul_pd(dx_hi, fmag_hi));
    _mm256_store_pd(fy, _mm256_mul_pd(dy_lo, fmag_lo));
    _mm256_store_pd(fy + 4, _mm256_mul_pd(dy_hi, fmag_hi));
    _mm256_store_pd(fz, _mm256_mul_pd(dz_lo, fmag_lo));
    _mm256_store_pd(fz + 4, _mm256_mul_pd(dz_hi, fmag_hi));
    for (int lane = 0; lane < 8; ++lane) {
      const Vec3 f{fx[lane], fy[lane], fz[lane]};
      acc[batch.i[p + lane]] += f;
      acc[batch.j[p + lane]] -= f;
    }
  }
  double total = hsum(energy);
  total += nonbonded_scalar_range(batch, c, acc, p, batch.count);
  return total;
}

double bond_avx2(const BondBatch& batch, Vec3* acc) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d tiny = _mm256_set1_pd(1e-300);
  const __m256d minus_two = _mm256_set1_pd(-2.0);
  const double* base = &batch.pos[0].x;

  __m256d energy = zero;
  std::size_t b = 0;
  for (; b + 4 <= batch.count; b += 4) {
    // Row offsets 3·i, 3·j into the stride-3 position doubles.
    const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(batch.i + b));
    const __m128i vj = _mm_loadu_si128(reinterpret_cast<const __m128i*>(batch.j + b));
    const __m128i oi = _mm_add_epi32(vi, _mm_add_epi32(vi, vi));
    const __m128i oj = _mm_add_epi32(vj, _mm_add_epi32(vj, vj));
    const __m256d xi = gather_pd(base, oi);
    const __m256d yi = gather_pd(base + 1, oi);
    const __m256d zi = gather_pd(base + 2, oi);
    const __m256d xj = gather_pd(base, oj);
    const __m256d yj = gather_pd(base + 1, oj);
    const __m256d zj = gather_pd(base + 2, oj);
    const __m256d dx = _mm256_sub_pd(xi, xj);
    const __m256d dy = _mm256_sub_pd(yi, yj);
    const __m256d dz = _mm256_sub_pd(zi, zj);
    __m256d r2 = _mm256_mul_pd(dx, dx);
    r2 = _mm256_fmadd_pd(dy, dy, r2);
    r2 = _mm256_fmadd_pd(dz, dz, r2);
    const __m256d live = _mm256_cmp_pd(r2, zero, _CMP_GT_OQ);
    const __m256d r = _mm256_sqrt_pd(_mm256_max_pd(r2, tiny));
    const __m256d k = _mm256_loadu_pd(batch.k + b);
    const __m256d ext = _mm256_sub_pd(r, _mm256_loadu_pd(batch.r0 + b));
    energy = _mm256_add_pd(
        energy, _mm256_and_pd(live, _mm256_mul_pd(k, _mm256_mul_pd(ext, ext))));
    const __m256d fmag = _mm256_and_pd(
        live, _mm256_div_pd(_mm256_mul_pd(minus_two, _mm256_mul_pd(k, ext)), r));
    alignas(32) double fx[4];
    alignas(32) double fy[4];
    alignas(32) double fz[4];
    _mm256_store_pd(fx, _mm256_mul_pd(dx, fmag));
    _mm256_store_pd(fy, _mm256_mul_pd(dy, fmag));
    _mm256_store_pd(fz, _mm256_mul_pd(dz, fmag));
    for (int lane = 0; lane < 4; ++lane) {
      const Vec3 f{fx[lane], fy[lane], fz[lane]};
      acc[batch.i[b + lane]] += f;
      acc[batch.j[b + lane]] -= f;
    }
  }
  double total = hsum(energy);
  total += bond_scalar_range(batch, acc, b, batch.count);
  return total;
}

}  // namespace spice::md::simd::detail

#else  // non-x86: aborting stubs; supported(Level::AVX2) is false here.

#include "common/error.hpp"

namespace spice::md::simd::detail {

double nonbonded_avx2(const PairBatch&, const NonbondedConsts&, Vec3*) {
  SPICE_REQUIRE(false, "AVX2 kernel called on a non-x86 build");
  return 0.0;
}

double bond_avx2(const BondBatch&, Vec3*) {
  SPICE_REQUIRE(false, "AVX2 kernel called on a non-x86 build");
  return 0.0;
}

}  // namespace spice::md::simd::detail

#endif
