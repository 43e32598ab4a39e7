#pragma once
// Extension point for forces beyond the built-in force field.
//
// External potentials (the pore model), SMD pulling springs and IMD
// steering forces all enter the engine through this interface. A
// contribution sees the whole state so it can implement collective
// couplings (e.g. a spring on the centre of mass of a selection).
//
// Evaluation is staged so contributions ride the engine's deterministic
// slice pipeline (see force_kernel.hpp):
//
//   1. begin_evaluation — serial, once per force evaluation. Compute
//      collective variables (COM, spring anchor position, accumulated
//      work, recorded statistics) here; return any energy that is not
//      attributable to a particular particle range (a COM-spring
//      potential, for instance).
//   2. accumulate_range — possibly-parallel, once per particle range.
//      The ranges of one evaluation are disjoint and cover [0, n); add
//      forces ONLY for particles in [begin, end) (never overwrite — each
//      range owns a private slice buffer) and return the energy
//      attributable to that range (per-particle potentials).
//
// The range partition is a fixed function of the particle count, so a
// contribution's floating-point accumulation order — and therefore the
// trajectory — is bit-identical for any number of worker threads.

#include <span>
#include <string>

#include "common/vec3.hpp"

namespace spice::md {

class Topology;

/// Abstract extra force, evaluated in the staged slice pipeline.
class ForceContribution {
 public:
  virtual ~ForceContribution() = default;

  /// Serial phase: update collective variables / statistics for the given
  /// positions at simulation time `time` (ps). Returns the range-less
  /// part of this contribution's potential energy in kcal/mol.
  virtual double begin_evaluation(std::span<const Vec3> positions, const Topology& topology,
                                  double time);

  /// Parallel phase: add this contribution's forces for particles with
  /// index in [begin, end) into `forces` (a full-length, absolute-indexed
  /// buffer); return the energy attributable to that range in kcal/mol.
  virtual double accumulate_range(std::span<const Vec3> positions, const Topology& topology,
                                  double time, std::size_t begin, std::size_t end,
                                  std::span<Vec3> forces) = 0;

  /// Human-readable name (appears in energy breakdowns and logs).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Convenience adaptor for potentials that act on each particle
/// independently, U(r_i); implement particle_energy_force. Splits
/// perfectly across ranges — no serial phase needed.
class PerParticlePotential : public ForceContribution {
 public:
  double accumulate_range(std::span<const Vec3> positions, const Topology& topology,
                          double time, std::size_t begin, std::size_t end,
                          std::span<Vec3> forces) override;

 protected:
  /// Energy of one particle at position r with the given charge; add the
  /// force on that particle to f.
  [[nodiscard]] virtual double particle_energy_force(const Vec3& r, double charge,
                                                     Vec3& f) const = 0;
};

}  // namespace spice::md
