#pragma once
// The SPICE science campaign: the (κ, v) parameter sweep of Fig. 4.
//
// For each spring constant κ ∈ {10, 100, 1000} pN/Å and pulling velocity
// v ∈ {12.5, 25, 50, 100} Å/ns, an ensemble of SMD pulls is run over the
// paper's 10 Å sub-trajectory near the pore centre and the PMF estimated
// with the Jarzynski exponential average.
//
// Cost normalization (§IV-C): "In the computational time that one sample
// at a v of 12.5 Å/ns can be generated, eight samples at a v of 100 Å/ns
// can be generated." The sweep therefore allocates sample counts
// proportional to v, so every (κ, v) cell burns the same compute and the
// bootstrap σ_stat values are directly comparable across cells.
//
// All replicas of a sweep start from ONE equilibrated configuration
// (EnsembleEngine replicas with per-replica stochastic seeds), mirroring
// the paper's common initial structure and giving every trajectory the
// same reaction-coordinate origin.

#include <cstdint>
#include <span>
#include <vector>

#include "fe/convergence.hpp"
#include "fe/error_analysis.hpp"
#include "fe/jarzynski.hpp"
#include "pore/system.hpp"
#include "smd/pulling.hpp"

namespace spice::core {

struct SweepConfig {
  std::vector<double> kappas_pn = {10.0, 100.0, 1000.0};
  std::vector<double> velocities_ns = {12.5, 25.0, 50.0, 100.0};
  double pull_distance = 10.0;       ///< the paper's sub-trajectory length, Å
  std::size_t grid_points = 21;      ///< λ-grid resolution of the PMF
  std::size_t samples_at_slowest = 2;  ///< replicas at min(v); counts scale ∝ v
  std::size_t sample_every = 300;    ///< pull-recorder (SMD force output) stride, steps (~3 ps)
  /// Work definition used for the JE analysis. SampledForce reproduces the
  /// original workflow (work integrated offline from the SMD force series)
  /// and with it the paper's stiff-spring noise; Accumulated is the
  /// numerically ideal alternative (used by the ablation bench).
  spice::fe::WorkSource work_source = spice::fe::WorkSource::SampledForce;
  std::size_t bootstrap_resamples = 64;
  /// Convergence-gated early stop: when > 0, a combo stops adding replicas
  /// as soon as the streaming JE jackknife error at λ_max (fe::
  /// ConvergenceTracker) drops to this level (kcal/mol). The fixed
  /// equal-compute counts from samples_for() remain the ceiling, so early
  /// stop can only SAVE compute, never spend more. <= 0 (default) keeps
  /// the fixed-replica behaviour exactly.
  double early_stop_error_kcal = 0.0;
  /// Floor on replicas before the early-stop predicate may fire.
  std::size_t early_stop_min_samples = 4;
  std::uint64_t seed = 2005;
  spice::pore::TranslocationConfig system;  ///< base system; equilibrated once

  SweepConfig();

  /// Replica count for a velocity under the equal-compute rule.
  [[nodiscard]] std::size_t samples_for(double velocity_ns) const;

  /// Shrink the system for fast unit tests: a 6-bead strand and a short
  /// equilibration. Science benches use the full default system.
  void use_small_system();
};

/// One (κ, v) cell of Fig. 4.
struct ComboResult {
  double kappa_pn = 0.0;
  double velocity_ns = 0.0;
  std::size_t samples = 0;
  spice::fe::PmfEstimate pmf;             ///< JE exponential estimate
  std::vector<double> sigma_stat;         ///< bootstrap error per λ point
  double mean_sigma_stat = 0.0;
  double mean_dissipated_work = 0.0;      ///< ⟨W⟩ − ΔF at λ_max, kcal/mol
  std::uint64_t md_steps = 0;             ///< compute actually spent
  /// Streaming diagnostics after the last pull (ΔF, σ_jack, Kish ESS, ...).
  spice::fe::ConvergenceState convergence;
  /// True when the convergence gate stopped the combo below its replica
  /// budget (always false with early_stop_error_kcal <= 0).
  bool early_stopped = false;
};

struct SweepResult {
  std::vector<ComboResult> combos;
  spice::fe::PmfEstimate reference;       ///< umbrella/WHAM equilibrium PMF
  bool has_reference = false;
  std::vector<spice::fe::ParameterScore> scores;  ///< filled when reference present
  double temperature_k = 300.0;
};

/// Run one forward SMD pull per seed as one EnsembleEngine wave: replica r
/// starts from the equilibrated master reseeded with seeds[r] and pulls
/// a (κ, v) spring on the strand's head bead along −z.
[[nodiscard]] std::vector<spice::smd::PullResult> run_forward_pulls(
    const spice::pore::TranslocationSystem& master, const SweepConfig& config, double kappa_pn,
    double velocity_ns, std::span<const std::uint64_t> seeds);

/// Run one Fig. 4 cell against an equilibrated master system.
[[nodiscard]] ComboResult run_combo(const spice::pore::TranslocationSystem& master,
                                    const SweepConfig& config, double kappa_pn,
                                    double velocity_ns);

/// Run one REVERSE pull per seed (the time-reversed protocol for
/// Crooks/BAR) as one EnsembleEngine wave: every replica is first
/// equilibrated with a stiff restraint at the forward end point
/// ξ = pull_distance, then pulled back toward ξ = 0 at (κ, v). Each
/// result's work is the reverse-protocol work W_R.
[[nodiscard]] std::vector<spice::smd::PullResult> run_reverse_pulls(
    const spice::pore::TranslocationSystem& master, const SweepConfig& config, double kappa_pn,
    double velocity_ns, std::span<const std::uint64_t> seeds);

/// Equilibrium reference PMF over the same coordinate (umbrella + WHAM).
[[nodiscard]] spice::fe::PmfEstimate compute_reference_pmf(
    const spice::pore::TranslocationSystem& master, const SweepConfig& config);

/// The full sweep: equilibrate one master, run every (κ, v) cell, compute
/// the WHAM reference and per-cell (σ_stat, σ_sys) scores.
[[nodiscard]] SweepResult run_parameter_sweep(const SweepConfig& config,
                                              bool compute_reference = true);

}  // namespace spice::core
