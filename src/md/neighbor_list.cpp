#include "md/neighbor_list.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "md/topology.hpp"

namespace spice::md {

NeighborList::NeighborList(double cutoff, double skin) : cutoff_(cutoff), skin_(skin) {
  SPICE_REQUIRE(cutoff > 0.0, "neighbour list cutoff must be positive");
  SPICE_REQUIRE(skin > 0.0, "neighbour list skin must be positive");
}

bool NeighborList::needs_rebuild(std::span<const Vec3> positions) const {
  if (reference_positions_.size() != positions.size()) return true;
  const double limit2 = 0.25 * skin_ * skin_;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (distance2(positions[i], reference_positions_[i]) > limit2) return true;
  }
  return false;
}

bool NeighborList::maybe_rebuild(std::span<const Vec3> positions, const Topology& topology) {
  if (!needs_rebuild(positions)) return false;
  rebuild(positions, topology);
  return true;
}

std::array<std::int64_t, 3> NeighborList::cell_of(const Vec3& r, double cell) {
  return {static_cast<std::int64_t>(std::floor(r.x / cell)),
          static_cast<std::int64_t>(std::floor(r.y / cell)),
          static_cast<std::int64_t>(std::floor(r.z / cell))};
}

std::uint64_t NeighborList::key_of(const std::array<std::int64_t, 3>& c) {
  // 21 bits per axis, offset to keep values positive.
  constexpr std::int64_t kOffset = 1 << 20;
  return static_cast<std::uint64_t>(((c[0] + kOffset) & 0x1fffff)) |
         (static_cast<std::uint64_t>((c[1] + kOffset) & 0x1fffff) << 21) |
         (static_cast<std::uint64_t>((c[2] + kOffset) & 0x1fffff) << 42);
}

void NeighborList::rebuild(std::span<const Vec3> positions, const Topology& topology) {
  SPICE_REQUIRE(positions.size() == topology.particle_count(),
                "positions/topology size mismatch");
  reference_positions_.assign(positions.begin(), positions.end());
  ++rebuilds_;

  const std::size_t n = positions.size();
  const double cell = cutoff_ + skin_;

  // Bin particles: stable sort by packed cell key keeps ids ascending
  // within a cell, which fixes every downstream iteration order.
  std::vector<std::uint64_t> particle_key(n);
  for (std::size_t i = 0; i < n; ++i) particle_key[i] = key_of(cell_of(positions[i], cell));
  cell_particles_.resize(n);
  std::iota(cell_particles_.begin(), cell_particles_.end(), 0u);
  std::stable_sort(cell_particles_.begin(), cell_particles_.end(),
                   [&particle_key](std::uint32_t a, std::uint32_t b) {
                     return particle_key[a] < particle_key[b];
                   });

  cell_keys_.clear();
  cell_coords_.clear();
  cell_begin_.clear();
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint32_t id = cell_particles_[p];
    if (cell_keys_.empty() || cell_keys_.back() != particle_key[id]) {
      cell_keys_.push_back(particle_key[id]);
      cell_coords_.push_back(cell_of(positions[id], cell));
      cell_begin_.push_back(static_cast<std::uint32_t>(p));
    }
  }
  cell_begin_.push_back(static_cast<std::uint32_t>(n));
}

}  // namespace spice::md
