#pragma once
// Runtime-dispatched batch kernels for the MD hot loops.
//
// The nonbonded (WCA + Debye–Hückel) and bond inner loops account for
// nearly all of a force evaluation on the production pore system. This
// table is the only place either term is computed: md/force_kernel.cpp
// packs each slice's share into dense streams (PairBatch, BondBatch) and
// calls the entry for the engine's level, at every level:
//   Scalar — plain double loops, available on every CPU; bit-identical to
//            the reference loops in tests/test_md_kernels.cpp, and the
//            level every committed golden record is made at;
//   AVX2   — x86-64 with FMA: mixed-precision nonbonded (8-wide fp32 pair
//            math, fp32 vectorized exp), 4-wide double bonds;
//   NEON   — aarch64: 2-wide double lanes.
// A new tier is one more Level and one more entry in the two tables.
//
// Prefactor rule: the packer stores a pair's Coulomb prefactor as
// coulomb_pref·(qᵢ·qⱼ), the charge product first. For ±1/0 charges both
// associations give the same bits; for mixed charges (the ionic_cluster
// golden's −0.3/+0.7) only this one reproduces the committed checkpoint
// hash and the reference loops of test_md_kernels.
//
// Dispatch policy: the level is chosen ONCE per process (active()), from
// CPU feature detection, overridable with SPICE_SIMD=scalar|avx2|neon|
// native for CI matrices and debugging. Engines may also pin a level per
// instance via MdConfig::simd (Request::Scalar keeps goldens bit-exact
// regardless of the host CPU).
//
// Determinism: every kernel's iteration order, lane assignment and
// reduction order are pure functions of the batch — never of thread count
// — so SIMD trajectories are still bit-identical across thread counts;
// they differ from scalar trajectories only in rounding (the fp32 pair
// math, the vectorized exp and the lane-wise energy accumulators round
// differently).
// The testkit tolerance ladder pins scalar↔SIMD agreement to norm bounds.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/vec3.hpp"

namespace spice::md::simd {

/// An implementation tier. Scalar is always available; the vector tiers
/// exist only on their ISA (supported() reports availability at runtime).
enum class Level { Scalar, AVX2, NEON };

/// What an engine asks for: Auto defers to the process-wide active()
/// level; the rest pin a specific tier (construction fails if the host
/// does not support it).
enum class Request { Auto, Scalar, AVX2, NEON };

[[nodiscard]] std::string_view name(Level level);

/// True when this CPU can execute `level`.
[[nodiscard]] bool supported(Level level);

/// Best level this CPU supports (ignores the environment override).
[[nodiscard]] Level detect();

/// Process-wide dispatch level, resolved once on first use:
/// SPICE_SIMD=scalar|avx2|neon|native when set (invalid values or an
/// unsupported forced tier are an error), otherwise detect().
[[nodiscard]] Level active();

/// Map an engine's request onto a concrete level. Auto → active();
/// anything else must be supported() (enforced).
[[nodiscard]] Level resolve(Request request);

// --- batched kernels -----------------------------------------------------
// Positions are the SystemState's Vec3 row, indexed by absolute particle
// id; per-pair / per-bond parameters are packed dense so the inner loop
// streams them. Forces accumulate into an absolute-indexed Vec3 buffer (a
// slice-private ForceAccumulator span); the return value is the batch
// potential energy.

/// One slice's nonbonded pair segment in packed form.
struct PairBatch {
  /// Position row. The row is followed by at least one readable Vec3
  /// (the StateArena pad), so the AVX2 kernel may load 32 bytes from
  /// &pos[i].x for any particle i; the fourth lane is discarded.
  const Vec3* pos = nullptr;
  const std::uint32_t* i = nullptr;  ///< pair first endpoints
  const std::uint32_t* j = nullptr;  ///< pair second endpoints
  const double* sigma = nullptr;     ///< per-pair WCA diameter σᵢ+σⱼ
  const double* pref = nullptr;      ///< per-pair (k_C/ε_r)·(qᵢ·qⱼ)
  /// Single-precision mirrors for the mixed-precision x86 kernel: (σᵢ+σⱼ)²
  /// and the Coulomb prefactor, packed once at neighbour-list rebuild.
  const float* sig2f = nullptr;
  const float* pref_f = nullptr;
  std::size_t count = 0;
};

/// Hoisted per-evaluation constants of the WCA + Debye–Hückel pair term.
struct NonbondedConsts {
  double cutoff2 = 0.0;         ///< r_c²
  double epsilon = 0.0;         ///< WCA ε
  double inv_lambda = 0.0;      ///< 1/λ_D
  double shift_per_pref = 0.0;  ///< e^{−r_c/λ}/r_c (DH cutoff shift / pref)
  double wca_lift = 0.0;        ///< 2^{1/3}: (2^{1/6}σ)² = wca_lift·σ²
};

/// One slice's harmonic-bond share in packed form.
struct BondBatch {
  const Vec3* pos = nullptr;  ///< position row
  const std::uint32_t* i = nullptr;
  const std::uint32_t* j = nullptr;
  const double* k = nullptr;   ///< spring constants
  const double* r0 = nullptr;  ///< rest lengths
  std::size_t count = 0;
};

using NonbondedFn = double (*)(const PairBatch&, const NonbondedConsts&, Vec3* acc);
using BondFn = double (*)(const BondBatch&, Vec3* acc);

/// Kernel entry points for `level` (must be supported()).
[[nodiscard]] NonbondedFn nonbonded_kernel(Level level);
[[nodiscard]] BondFn bond_kernel(Level level);

namespace detail {
// Per-tier implementations. The vector TUs are compiled with their ISA
// flags; on foreign architectures they compile to aborting stubs that the
// dispatch tables never hand out (supported() gates them).
double nonbonded_scalar(const PairBatch& batch, const NonbondedConsts& c, Vec3* acc);
double bond_scalar(const BondBatch& batch, Vec3* acc);
/// Scalar sub-range [begin, end): the vector kernels run this on their
/// remainder lanes so tails use the exact scalar operation sequence.
double nonbonded_scalar_range(const PairBatch& batch, const NonbondedConsts& c, Vec3* acc,
                              std::size_t begin, std::size_t end);
double bond_scalar_range(const BondBatch& batch, Vec3* acc, std::size_t begin,
                         std::size_t end);
double nonbonded_avx2(const PairBatch& batch, const NonbondedConsts& c, Vec3* acc);
double bond_avx2(const BondBatch& batch, Vec3* acc);
double nonbonded_neon(const PairBatch& batch, const NonbondedConsts& c, Vec3* acc);
double bond_neon(const BondBatch& batch, Vec3* acc);
}  // namespace detail

}  // namespace spice::md::simd
