#pragma once
// Staged force-kernel pipeline over the SystemState's Vec3 rows.
//
// One force evaluation runs in three phases:
//
//   1. begin_evaluation (serial)  — each kernel refreshes caches (e.g. the
//      nonbonded kernel notices a neighbour-list rebuild epoch).
//   2. evaluate_slice (parallel)  — the engine runs S(n) =
//      min(16, ceil(n / 32)) slices for n particles (a function of the
//      system, never of the thread count); each slice owns a private
//      full-length ForceAccumulator and every kernel deposits a disjoint,
//      deterministic share of its work into it. ForceContributions (pore
//      potential, SMD springs, steering forces) ride the same slices via
//      the particle ranges [n·s/S, n·(s+1)/S).
//   3. reduce (deterministic)     — per-slice buffers are summed in slice
//      order into the SystemState force row, and per-slice energies in
//      slice order into the EnergyBreakdown.
//
// Because the slice partition, the per-slice iteration order and the
// reduction order are all pure functions of (system, slice count), and the
// slice count is itself a function of the system, the resulting trajectory
// is bit-identical for any number of worker threads — the engine.hpp
// determinism contract.
//
// Accumulators track the touched index window so the workspace zeroes and
// reduces only what a slice actually wrote (bonded slices touch a narrow
// band of a chain topology; reducing S full arrays would swamp the win).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/vec3.hpp"
#include "md/forcefield.hpp"
#include "md/neighbor_list.hpp"
#include "md/simd.hpp"

namespace spice {
class ThreadPool;
}

namespace spice::md {

class SystemState;
class Topology;

/// Which EnergyBreakdown slot a kernel's energy belongs to.
enum class EnergyTerm : std::size_t { Bond = 0, Angle, Dihedral, Nonbonded, kCount };

/// Everything a kernel may read during one evaluation (immutable view).
struct KernelContext {
  const SystemState* state = nullptr;
  const Topology* topology = nullptr;
  const NonbondedParams* nonbonded = nullptr;
  const NeighborList* neighbors = nullptr;
  double time = 0.0;
  std::size_t slice_count = 1;  ///< slices this evaluation will be split into
  /// SIMD level the engine resolved at construction: which entry of the
  /// md/simd.hpp dispatch table the bond and nonbonded kernels call. Every
  /// level, Scalar included, runs the same packed batch streams.
  simd::Level simd = simd::Level::Scalar;
};

/// One slice's private force buffer with touched-window bookkeeping.
class ForceAccumulator {
 public:
  /// Add a force, noting the touched index.
  void add(std::size_t i, const Vec3& f) {
    forces_[i] += f;
    lo_ = std::min(lo_, i);
    hi_ = std::max(hi_, i + 1);
  }
  /// Declare [lo, hi) as touched without writing (the batch kernels write
  /// through span() and declare their window here).
  void note_range(std::size_t lo, std::size_t hi) {
    if (lo >= hi) return;
    lo_ = std::min(lo_, lo);
    hi_ = std::max(hi_, hi);
  }
  /// Full-length view (absolute particle indexing) for ForceContributions
  /// and the batch kernels.
  [[nodiscard]] std::span<Vec3> span() { return forces_; }
  [[nodiscard]] std::size_t window_lo() const { return lo_; }
  [[nodiscard]] std::size_t window_hi() const { return hi_; }

 private:
  friend class ForceWorkspace;
  std::vector<Vec3> forces_;
  std::size_t lo_ = 0;  ///< touched window [lo_, hi_)
  std::size_t hi_ = 0;
};

/// Per-slice accumulation buffers + per-slice energy slots shared by the
/// built-in kernels and all external ForceContributions.
class ForceWorkspace {
 public:
  /// Size for `particles`, `slices` and `external_terms` contributions.
  /// Cheap when the shape is unchanged.
  void configure(std::size_t particles, std::size_t slices, std::size_t external_terms);

  [[nodiscard]] std::size_t slice_count() const { return slices_.size(); }

  /// Hand out slice `s`, zeroed (only the previously touched window is
  /// cleared) with its energy slots reset. Called from the slice's own
  /// worker — zeroing is parallel.
  ForceAccumulator& acquire_slice(std::size_t s);

  [[nodiscard]] double& energy(std::size_t s, EnergyTerm term) {
    return term_energy_[s * static_cast<std::size_t>(EnergyTerm::kCount) +
                        static_cast<std::size_t>(term)];
  }
  [[nodiscard]] double& external_energy(std::size_t s, std::size_t contribution) {
    return external_energy_[s * external_terms_ + contribution];
  }

  /// Deterministic reduction: per particle, slice contributions are summed
  /// in ascending slice order (thread-count independent), written into
  /// `forces`. `pool` (may be null) parallelizes over particles.
  void reduce_forces(std::span<Vec3> forces, ThreadPool* pool) const;

  /// Per-term / per-contribution energies summed in slice order.
  [[nodiscard]] double reduced_energy(EnergyTerm term) const;
  [[nodiscard]] double reduced_external(std::size_t contribution) const;

 private:
  std::vector<ForceAccumulator> slices_;
  std::vector<double> term_energy_;      ///< [slice][term]
  std::vector<double> external_energy_;  ///< [slice][contribution]
  std::size_t particles_ = 0;
  std::size_t external_terms_ = 0;
};

/// A force term that evaluates in deterministic parallel slices.
class ForceKernel {
 public:
  virtual ~ForceKernel() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual EnergyTerm term() const = 0;

  /// Serial hook before the parallel phase (cache refresh etc.).
  virtual void begin_evaluation(const KernelContext& /*ctx*/) {}

  /// Deposit slice `slice` of `slice_count` disjoint shares of this
  /// kernel's work into `acc`; return that share's potential energy. The
  /// partition must depend only on (work, slice_count), never on threads.
  virtual double evaluate_slice(const KernelContext& ctx, std::size_t slice,
                                std::size_t slice_count, ForceAccumulator& acc) = 0;
};

// --- built-in kernels ----------------------------------------------------

/// Harmonic bonds, sliced over the bond array. The (immutable) bond table
/// is packed once into dense index/parameter streams with per-slice
/// touched-particle windows, which simd::bond_kernel(ctx.simd) consumes.
class BondKernel final : public ForceKernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "bond"; }
  [[nodiscard]] EnergyTerm term() const override { return EnergyTerm::Bond; }
  void begin_evaluation(const KernelContext& ctx) override;
  double evaluate_slice(const KernelContext& ctx, std::size_t slice, std::size_t slice_count,
                        ForceAccumulator& acc) override;

 private:
  struct PackedBonds {
    std::vector<std::uint32_t> i, j;
    std::vector<double> k, r0;
    std::vector<std::size_t> lo, hi;  ///< per-slice touched particle windows
    std::size_t slice_count = 0;
    bool built = false;
  };
  PackedBonds packed_;
};

/// Harmonic angles, sliced over the angle array.
class AngleKernel final : public ForceKernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "angle"; }
  [[nodiscard]] EnergyTerm term() const override { return EnergyTerm::Angle; }
  double evaluate_slice(const KernelContext& ctx, std::size_t slice, std::size_t slice_count,
                        ForceAccumulator& acc) override;
};

/// Periodic torsions, sliced over the dihedral array.
class DihedralKernel final : public ForceKernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "dihedral"; }
  [[nodiscard]] EnergyTerm term() const override { return EnergyTerm::Dihedral; }
  double evaluate_slice(const KernelContext& ctx, std::size_t slice, std::size_t slice_count,
                        ForceAccumulator& acc) override;
};

/// WCA + Debye–Hückel nonbonded term. Consumes the neighbour list's
/// iterate-pairs-by-cell path directly: at each rebuild epoch every slice
/// refreshes its private exclusion- and reach-filtered pair segment (in
/// parallel, inside its own evaluate_slice call); between rebuilds the
/// per-step cost is one simd::nonbonded_kernel(ctx.simd) call over that
/// segment, which tests the cutoff ahead of the expensive exp. The segment
/// table itself is sized in the serial begin_evaluation phase so the
/// parallel slices only ever touch their own element.
class NonbondedKernel final : public ForceKernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "nonbonded"; }
  [[nodiscard]] EnergyTerm term() const override { return EnergyTerm::Nonbonded; }
  void begin_evaluation(const KernelContext& ctx) override;
  double evaluate_slice(const KernelContext& ctx, std::size_t slice, std::size_t slice_count,
                        ForceAccumulator& acc) override;

 private:
  struct SliceSegment {
    // Packed per-pair streams: pair indices plus the derived
    // sigma_i+sigma_j and Coulomb prefactor, so the hot loop never chases
    // the per-particle parameter columns twice per pair.
    std::vector<std::uint32_t> pi, pj;
    std::vector<double> sigma, pref;
    std::vector<float> sig2f, pref_f;  // mixed-precision kernel streams
    std::size_t lo = 0;          ///< touched particle window
    std::size_t hi = 0;
    std::uint64_t epoch = ~0ULL; ///< neighbour-list build this derives from
  };
  void refresh_segment(const KernelContext& ctx, std::size_t slice, std::size_t slice_count);

  std::vector<SliceSegment> segments_;
};

}  // namespace spice::md
