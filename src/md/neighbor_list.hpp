#pragma once
// Cell-grid neighbour structure (open boundaries — the translocation
// system is finite; there is no periodic box).
//
// The grid bins particles into cubic cells of edge cutoff + skin and is
// rebuilt lazily: the engine calls maybe_rebuild() each step and the bins
// only rebuild when some particle has moved more than skin/2 since the
// last build, the standard displacement criterion.
//
// Consumers iterate pairs by cell: for_each_candidate_pair() walks the
// half-stencil of occupied cells and yields raw (i, j) candidates for a
// deterministic slice of the cell table. The nonbonded ForceKernel
// consumes this at each rebuild epoch to refresh its slice-local filtered
// pair segments — no global pair vector is materialized or sorted.
//
// The slice partition and all iteration orders are pure functions of the
// sorted cell table, never of thread count — this is what lets the engine
// keep its bit-identical-across-thread-counts determinism contract.

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/vec3.hpp"

namespace spice::md {

class Topology;

class NeighborList {
 public:
  /// cutoff: interaction cutoff (Å); skin: extra shell (Å), > 0.
  NeighborList(double cutoff, double skin);

  /// Rebuild if any particle moved more than skin/2 since last build.
  /// Returns true if a rebuild happened.
  bool maybe_rebuild(std::span<const Vec3> positions, const Topology& topology);

  /// Unconditionally rebuild the cell bins.
  void rebuild(std::span<const Vec3> positions, const Topology& topology);

  [[nodiscard]] double cutoff() const { return cutoff_; }
  [[nodiscard]] double skin() const { return skin_; }
  [[nodiscard]] std::size_t rebuild_count() const { return rebuilds_; }
  /// Positions the cell bins were built from (empty before the first
  /// build). The displacement criterion measures against these, and the
  /// engine checkpoints them: rebuilding from the same reference positions
  /// reproduces the cell table — and thus every downstream pair iteration
  /// order — bit-exactly, which is what makes restore() replay-exact.
  [[nodiscard]] std::span<const Vec3> reference_positions() const {
    return reference_positions_;
  }
  /// Monotonic build counter; changes exactly when the cell bins change.
  /// Kernels key their cached slice pair segments on this.
  [[nodiscard]] std::uint64_t epoch() const { return rebuilds_; }

  /// Number of occupied cells after the last build.
  [[nodiscard]] std::size_t cell_count() const { return cell_keys_.size(); }

  /// Invoke fn(i, j) for every candidate pair owned by `slice` of
  /// `slice_count`: slices own contiguous ranges of the sorted cell table;
  /// a cell owns its intra-cell pairs plus all pairs into its 13 forward
  /// half-stencil neighbours. No distance or exclusion filtering is
  /// applied — callers filter (and typically cache the result per epoch).
  template <typename F>
  void for_each_candidate_pair(std::size_t slice, std::size_t slice_count, F&& fn) const {
    const std::size_t cells = cell_keys_.size();
    if (cells == 0 || slice_count == 0) return;
    const std::size_t lo = cells * slice / slice_count;
    const std::size_t hi = cells * (slice + 1) / slice_count;
    for (std::size_t c = lo; c < hi; ++c) {
      const std::uint32_t begin = cell_begin_[c];
      const std::uint32_t end = cell_begin_[c + 1];
      // Intra-cell pairs, each once (particle order within a cell is
      // ascending by construction).
      for (std::uint32_t a = begin; a < end; ++a) {
        for (std::uint32_t b = a + 1; b < end; ++b) {
          fn(cell_particles_[a], cell_particles_[b]);
        }
      }
      // Cross pairs into the 13 forward neighbour cells.
      const auto& coord = cell_coords_[c];
      for (const auto& d : kHalfStencil) {
        const std::uint64_t key =
            key_of({coord[0] + d[0], coord[1] + d[1], coord[2] + d[2]});
        const auto it = std::lower_bound(cell_keys_.begin(), cell_keys_.end(), key);
        if (it == cell_keys_.end() || *it != key) continue;
        const auto nc = static_cast<std::size_t>(it - cell_keys_.begin());
        const std::uint32_t nbegin = cell_begin_[nc];
        const std::uint32_t nend = cell_begin_[nc + 1];
        for (std::uint32_t a = begin; a < end; ++a) {
          for (std::uint32_t b = nbegin; b < nend; ++b) {
            fn(cell_particles_[a], cell_particles_[b]);
          }
        }
      }
    }
  }

 private:
  [[nodiscard]] bool needs_rebuild(std::span<const Vec3> positions) const;
  [[nodiscard]] static std::array<std::int64_t, 3> cell_of(const Vec3& r, double cell);
  [[nodiscard]] static std::uint64_t key_of(const std::array<std::int64_t, 3>& c);

  /// Forward half of the 27-cell stencil: offsets lexicographically
  /// greater than (0,0,0) in (z, y, x) order — 13 entries, so every
  /// unordered cell pair is visited exactly once.
  static constexpr std::array<std::array<std::int64_t, 3>, 13> kHalfStencil = {{
      {1, 0, 0},
      {-1, 1, 0},  {0, 1, 0},  {1, 1, 0},
      {-1, -1, 1}, {0, -1, 1}, {1, -1, 1},
      {-1, 0, 1},  {0, 0, 1},  {1, 0, 1},
      {-1, 1, 1},  {0, 1, 1},  {1, 1, 1},
  }};

  double cutoff_;
  double skin_;

  // CSR cell table: sorted packed keys, integer coords, particle ids
  // grouped by cell (ascending within each cell).
  std::vector<std::uint64_t> cell_keys_;
  std::vector<std::array<std::int64_t, 3>> cell_coords_;
  std::vector<std::uint32_t> cell_begin_;
  std::vector<std::uint32_t> cell_particles_;

  std::vector<Vec3> reference_positions_;
  std::size_t rebuilds_ = 0;
};

}  // namespace spice::md
