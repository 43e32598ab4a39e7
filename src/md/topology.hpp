#pragma once
// Molecular topology: particles, bonded terms and nonbonded exclusions.
//
// This is the coarse-grained stand-in for the paper's all-atom NAMD
// topology (see DESIGN.md §2): one bead per nucleotide, harmonic bonds,
// harmonic angles for bending stiffness, and 1-2 / 1-3 nonbonded
// exclusions as is conventional for bead–spring polymer models.

#include <cstdint>
#include <string>
#include <vector>

namespace spice::md {

using ParticleIndex = std::uint32_t;

struct Particle {
  double mass = 1.0;      ///< g/mol
  double charge = 0.0;    ///< elementary charges
  double radius = 1.0;    ///< WCA radius (Å); pair sigma is r_i + r_j
  std::string name{};     ///< label for trajectory output (e.g. "NT")
};

struct Bond {
  ParticleIndex i = 0;
  ParticleIndex j = 0;
  double k = 0.0;   ///< kcal/mol/Å² (harmonic: U = k (r - r0)²; note: no 1/2)
  double r0 = 0.0;  ///< Å
};

struct Angle {
  ParticleIndex i = 0;  ///< outer
  ParticleIndex j = 0;  ///< apex
  ParticleIndex k = 0;  ///< outer
  double k_theta = 0.0;  ///< kcal/mol/rad²  (U = k_theta (θ - θ0)²)
  double theta0 = 0.0;   ///< radians
};

/// Periodic torsion over the i-j-k-l chain:
/// U = k_phi (1 + cos(n φ − δ)).
struct Dihedral {
  ParticleIndex i = 0;
  ParticleIndex j = 0;
  ParticleIndex k = 0;
  ParticleIndex l = 0;
  double k_phi = 0.0;   ///< kcal/mol
  int multiplicity = 1; ///< n ≥ 1
  double delta = 0.0;   ///< phase, radians
};

/// Builder + container for the molecular topology. Once finalized (first
/// use by an Engine), the exclusion table is built and the topology is
/// conceptually immutable.
class Topology {
 public:
  /// Add a particle, returning its index.
  ParticleIndex add_particle(const Particle& p);

  /// Add a harmonic bond between existing particles (also excludes the
  /// pair from nonbonded interactions).
  void add_bond(const Bond& b);

  /// Add a harmonic angle among existing particles (also excludes the
  /// (i,k) 1-3 pair from nonbonded interactions).
  void add_angle(const Angle& a);

  /// Add a periodic torsion (also excludes the (i,l) 1-4 pair — full 1-4
  /// exclusion as in simple coarse-grained force fields).
  void add_dihedral(const Dihedral& d);

  /// Explicitly exclude a pair from nonbonded interactions.
  void add_exclusion(ParticleIndex i, ParticleIndex j);

  [[nodiscard]] std::size_t particle_count() const { return particles_.size(); }
  [[nodiscard]] const std::vector<Particle>& particles() const { return particles_; }
  [[nodiscard]] const std::vector<Bond>& bonds() const { return bonds_; }
  [[nodiscard]] const std::vector<Angle>& angles() const { return angles_; }
  [[nodiscard]] const std::vector<Dihedral>& dihedrals() const { return dihedrals_; }

  /// Sort and deduplicate the exclusion table. excluded() does this
  /// lazily, but the lazy path mutates shared state — callers that will
  /// query exclusions from multiple threads (the engine's parallel force
  /// slices) must finalize once, serially, first.
  void finalize() const;

  /// True if the nonbonded interaction between i and j is excluded.
  /// Thread-safe after finalize().
  [[nodiscard]] bool excluded(ParticleIndex i, ParticleIndex j) const;

  [[nodiscard]] double total_mass() const;
  [[nodiscard]] double total_charge() const;

 private:
  [[nodiscard]] static std::uint64_t pair_key(ParticleIndex i, ParticleIndex j);

  std::vector<Particle> particles_;
  std::vector<Bond> bonds_;
  std::vector<Angle> angles_;
  std::vector<Dihedral> dihedrals_;
  std::vector<std::uint64_t> exclusions_;  ///< sorted pair keys
  mutable bool exclusions_sorted_ = true;
};

}  // namespace spice::md
