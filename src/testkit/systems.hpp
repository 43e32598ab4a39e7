#pragma once
// Canonical test systems shared by the physics-invariant suite, the golden
// regression registry and the migrated determinism/convergence tests. Each
// factory is a pure function of its config structs, so two builds of the
// same system are bit-identical — the property every consumer (seed
// sweeps, golden hashing, checkpoint round-trips) leans on.

#include <cstdint>
#include <memory>

#include "md/engine.hpp"
#include "pore/system.hpp"
#include "smd/pulling.hpp"
#include "smd/position_restraint.hpp"
#include "smd/restraint.hpp"

namespace spice::testkit {

/// The execution axes the invariant suite parameterizes over: every
/// physics law must hold for each (seed, threads, integrator).
struct MdRunConfig {
  std::uint64_t seed = 77;
  std::size_t threads = 1;
  md::IntegratorKind integrator = md::IntegratorKind::Langevin;
  /// SIMD dispatch. Auto follows the process-wide level; golden functions
  /// pin Scalar so committed hashes stay host-independent.
  md::simd::Request simd = md::simd::Request::Auto;
};

/// The 24-bead charged helix from the determinism suite: long enough to
/// span several cells/slices, with every bonded term type present. This is
/// the workhorse for determinism, NVE-drift, finite-difference and golden
/// checks. `dt` defaults to the determinism suite's production step; the
/// NVE-drift invariant passes a smaller one (energy conservation needs
/// ωdt well inside the stability margin, not at it).
[[nodiscard]] md::Engine make_bead_chain(const MdRunConfig& run, double dt = 0.01);

/// An 8-bead zig-zag chain built for energy-conservation checks: bonds,
/// bent angles (θ₀ = 2.4 rad — far from the collinear singularity the
/// helix's θ₀ = π dihedral geometry flirts with) and 1-4 Debye–Hückel
/// pairs inside the cutoff, so NVE drift probes bonded AND nonbonded
/// forces. The caller picks dt; ωdt ≈ 0.018 at dt = 0.002.
[[nodiscard]] md::Engine make_nve_chain(const MdRunConfig& run, double dt = 0.002);

/// A compact ionic cluster (claim E19's system and the ionic_cluster
/// golden): a bonded chain snaking over a cubic lattice of 3.6 Å pitch,
/// just outside the WCA shell, with charges alternating q_even / q_odd
/// (NaCl-like order, so the Debye–Hückel cohesion holds it together at
/// 300 K). Nearly every neighbour pair sits inside the cutoff, so the load
/// is nonbonded-dominated, like the production pore systems. dt 0.005 ps.
[[nodiscard]] md::Engine make_ionic_cluster(const MdRunConfig& run, std::size_t beads,
                                            double q_even, double q_odd);

/// An array of independent particles, each in its own isotropic harmonic
/// well, spaced farther apart than the nonbonded cutoff. Because the wells
/// are non-interacting, positional variance, velocity distribution and
/// equipartition all have CLOSED-FORM references — and every particle is
/// an independent sample, so a single trajectory yields thousands of them.
struct WellArraySpec {
  std::size_t particles = 128;
  double stiffness = 2.0;    ///< well k, kcal/mol/Å² (U = ½ k |r−r₀|²)
  double mass = 12.0;        ///< amu
  double temperature = 300.0;
  double friction = 8.0;     ///< 1/ps — fast decorrelation between snapshots
  double dt = 0.005;         ///< small ωdt keeps the BAOAB config bias ≪ gates
  double spacing = 40.0;     ///< Å lattice pitch; > cutoff ⇒ exactly independent
};

struct WellArray {
  md::Engine engine;
  std::shared_ptr<smd::PositionRestraint> wells;  ///< anchors at the lattice sites
  WellArraySpec spec;
};

[[nodiscard]] WellArray make_well_array(const MdRunConfig& run, const WellArraySpec& spec = {});

/// Per-axis positional standard deviation √(kT/k) of a well in `spec`.
[[nodiscard]] double well_position_sigma(const WellArraySpec& spec);

/// The same lattice with the wells removed: free Langevin particles, for
/// which the mean-square displacement has the exact Ornstein–Uhlenbeck
/// form MSD(t) = 6·D·(t − (1 − e^{−γt})/γ) with D = kT/(mγ).
[[nodiscard]] md::Engine make_free_array(const MdRunConfig& run, const WellArraySpec& spec = {});

/// Expected MSD (Å²) after `t_ps` for a free particle in `spec`'s bath.
[[nodiscard]] double free_msd_expected(const WellArraySpec& spec, double t_ps);

/// Stiff-spring pull of one particle out of (or without) a harmonic well —
/// the analytic Jarzynski reference. The pull attaches at the exact well
/// centre, so ΔF = ½·k_eff·λ² with k_eff = k_w·κ/(k_w + κ) holds exactly
/// (not just to kT accuracy); without the well, translational invariance
/// makes ΔF = 0 exactly.
struct HarmonicPullSpec {
  double k_well = 2.0;        ///< kcal/mol/Å² (0 ⇒ free particle, ΔF = 0)
  double kappa_pn = 300.0;    ///< pull spring, paper units (pN/Å)
  double lambda_max = 3.0;    ///< Å
  double mass = 50.0;
  double temperature = 300.0;
  double friction = 2.0;
  double dt = 0.01;
  double hold_ps = 8.0;       ///< λ = 0 equilibration with the spring on
  double velocity_angstrom_per_ns = 250.0;
};

struct HarmonicPull {
  md::Engine engine;
  std::shared_ptr<smd::ConstantVelocityPull> pull;
  HarmonicPullSpec spec;
};

[[nodiscard]] HarmonicPull make_harmonic_pull(const MdRunConfig& run,
                                              const HarmonicPullSpec& spec = {});

/// Effective stiffness k_w·κ/(k_w + κ) of the well ∘ spring composition.
[[nodiscard]] double harmonic_pull_k_eff(const HarmonicPullSpec& spec);

/// Analytic ΔF(λ_max) = ½·k_eff·λ_max² of the pull (0 when k_well = 0).
[[nodiscard]] double harmonic_pull_delta_f(const HarmonicPullSpec& spec);

/// Run the pull to λ_max and return the endpoint work (kcal/mol).
[[nodiscard]] double run_harmonic_pull_work(HarmonicPull& system);

/// A small ssDNA-in-pore translocation system (the paper's production
/// geometry) for golden regression and round-trip fuzzing.
[[nodiscard]] pore::TranslocationSystem make_pore_chain(const MdRunConfig& run);

}  // namespace spice::testkit
