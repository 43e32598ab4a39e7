#include "testkit/systems.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace spice::testkit {

using spice::md::Engine;
using spice::md::MdConfig;
using spice::md::NonbondedParams;
using spice::md::ParticleIndex;
using spice::md::Topology;

md::Engine make_bead_chain(const MdRunConfig& run, double dt) {
  constexpr int kBeads = 24;
  Topology topo;
  for (int i = 0; i < kBeads; ++i) {
    topo.add_particle({.mass = 300.0, .charge = -1.0, .radius = 4.0, .name = "NT"});
  }
  for (ParticleIndex i = 0; i + 1 < kBeads; ++i) topo.add_bond({i, i + 1, 10.0, 7.0});
  for (ParticleIndex i = 0; i + 2 < kBeads; ++i) {
    topo.add_angle({i, i + 1, i + 2, 5.0, std::numbers::pi});
  }
  for (ParticleIndex i = 0; i + 3 < kBeads; ++i) {
    topo.add_dihedral({i, i + 1, i + 2, i + 3, 0.5, 1, 0.0});
  }
  MdConfig cfg;
  cfg.dt = dt;
  cfg.threads = run.threads;
  cfg.seed = run.seed;
  cfg.integrator = run.integrator;
  cfg.simd = run.simd;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  std::vector<Vec3> xs(kBeads);
  for (int i = 0; i < kBeads; ++i) {
    // Gentle helix: neither collinear nor self-overlapping.
    const double phi = 0.4 * i;
    xs[i] = {3.0 * std::cos(phi), 3.0 * std::sin(phi), 7.0 * i};
  }
  engine.set_positions(xs);
  engine.initialize_velocities(300.0);
  return engine;
}

md::Engine make_nve_chain(const MdRunConfig& run, double dt) {
  constexpr int kBeads = 8;
  constexpr double kBondLength = 4.0;
  Topology topo;
  for (int i = 0; i < kBeads; ++i) {
    topo.add_particle({.mass = 100.0, .charge = -1.0, .radius = 1.5, .name = "NV"});
  }
  for (ParticleIndex i = 0; i + 1 < kBeads; ++i) topo.add_bond({i, i + 1, 10.0, kBondLength});
  for (ParticleIndex i = 0; i + 2 < kBeads; ++i) topo.add_angle({i, i + 1, i + 2, 3.0, 2.4});
  MdConfig cfg;
  cfg.dt = dt;
  cfg.threads = run.threads;
  cfg.seed = run.seed;
  cfg.integrator = run.integrator;
  cfg.simd = run.simd;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  // Planar zig-zag at the angle rest geometry (cos θ₀ = (s²−h²)/r₀²),
  // with a small y twist so no symmetry plane survives.
  const double s = std::sqrt(0.5 * kBondLength * kBondLength * (1.0 + std::cos(2.4)));
  const double h = std::sqrt(kBondLength * kBondLength - s * s);
  std::vector<Vec3> xs(kBeads);
  for (int i = 0; i < kBeads; ++i) {
    xs[i] = {(i % 2 == 0) ? 0.0 : h, 0.05 * i, s * i};
  }
  engine.set_positions(xs);
  engine.initialize_velocities(300.0);
  return engine;
}

namespace {

/// Cubic-lattice sites with pitch `spacing`, origin-centred cells.
std::vector<Vec3> lattice_sites(std::size_t n, double spacing) {
  const auto side = static_cast<std::size_t>(
      std::ceil(std::cbrt(static_cast<double>(n))));
  std::vector<Vec3> sites;
  sites.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t x = i % side;
    const std::size_t y = (i / side) % side;
    const std::size_t z = i / (side * side);
    sites.push_back({spacing * static_cast<double>(x), spacing * static_cast<double>(y),
                     spacing * static_cast<double>(z)});
  }
  return sites;
}

Engine make_array_engine(const MdRunConfig& run, const WellArraySpec& spec) {
  SPICE_REQUIRE(spec.particles >= 1, "well array needs at least one particle");
  SPICE_REQUIRE(spec.spacing > NonbondedParams{}.cutoff,
                "well-array spacing must exceed the nonbonded cutoff so the "
                "particles are exactly independent");
  Topology topo;
  for (std::size_t i = 0; i < spec.particles; ++i) {
    topo.add_particle({.mass = spec.mass, .charge = 0.0, .radius = 1.0, .name = "W"});
  }
  MdConfig cfg;
  cfg.dt = spec.dt;
  cfg.temperature = spec.temperature;
  cfg.friction = spec.friction;
  cfg.threads = run.threads;
  cfg.seed = run.seed;
  cfg.integrator = run.integrator;
  cfg.simd = run.simd;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  engine.set_positions(lattice_sites(spec.particles, spec.spacing));
  engine.initialize_velocities(spec.temperature);
  return engine;
}

}  // namespace

WellArray make_well_array(const MdRunConfig& run, const WellArraySpec& spec) {
  Engine engine = make_array_engine(run, spec);
  std::vector<std::uint32_t> atoms(spec.particles);
  for (std::size_t i = 0; i < spec.particles; ++i) atoms[i] = static_cast<std::uint32_t>(i);
  auto wells = std::make_shared<smd::PositionRestraint>(std::move(atoms), spec.stiffness);
  wells->attach(engine);  // anchors = the lattice sites
  engine.add_contribution(wells);
  return WellArray{std::move(engine), std::move(wells), spec};
}

double well_position_sigma(const WellArraySpec& spec) {
  return std::sqrt(units::kT(spec.temperature) / spec.stiffness);
}

md::Engine make_free_array(const MdRunConfig& run, const WellArraySpec& spec) {
  return make_array_engine(run, spec);
}

double free_msd_expected(const WellArraySpec& spec, double t_ps) {
  const double d = units::langevin_diffusion(spec.temperature, spec.mass, spec.friction);
  const double gamma = spec.friction;
  // Ornstein–Uhlenbeck MSD: ballistic → diffusive crossover at 1/γ.
  return 6.0 * d * (t_ps - (1.0 - std::exp(-gamma * t_ps)) / gamma);
}

HarmonicPull make_harmonic_pull(const MdRunConfig& run, const HarmonicPullSpec& spec) {
  Topology topo;
  topo.add_particle({.mass = spec.mass, .charge = 0.0, .radius = 1.0, .name = "P"});
  MdConfig cfg;
  cfg.dt = spec.dt;
  cfg.temperature = spec.temperature;
  cfg.friction = spec.friction;
  cfg.threads = run.threads;
  cfg.seed = run.seed;
  cfg.integrator = run.integrator;
  cfg.simd = run.simd;
  Engine engine(std::move(topo), NonbondedParams{}, cfg);
  engine.set_positions(std::vector<Vec3>{{0, 0, 0}});
  engine.initialize_velocities(spec.temperature);

  if (spec.k_well > 0.0) {
    // 1-D well along the pull direction, centred on the pull's λ = 0
    // origin — this exact alignment is what makes ΔF = ½ k_eff λ² exact.
    auto well = std::make_shared<smd::StaticRestraint>(std::vector<std::uint32_t>{0},
                                                       Vec3{0, 0, -1.0}, spec.k_well, 0.0);
    well->attach_reference({0, 0, 0});
    engine.add_contribution(well);
  }

  smd::SmdParams params;
  params.spring_pn_per_angstrom = spec.kappa_pn;
  params.velocity_angstrom_per_ns = spec.velocity_angstrom_per_ns;
  params.smd_atoms = {0};
  params.hold_ps = spec.hold_ps;
  auto pull = std::make_shared<smd::ConstantVelocityPull>(params);
  pull->attach(engine);
  engine.add_contribution(pull);
  return HarmonicPull{std::move(engine), std::move(pull), spec};
}

double harmonic_pull_k_eff(const HarmonicPullSpec& spec) {
  const double kappa = units::spring_pn_per_angstrom(spec.kappa_pn);
  if (spec.k_well <= 0.0) return 0.0;
  return spec.k_well * kappa / (spec.k_well + kappa);
}

double harmonic_pull_delta_f(const HarmonicPullSpec& spec) {
  return 0.5 * harmonic_pull_k_eff(spec) * spec.lambda_max * spec.lambda_max;
}

double run_harmonic_pull_work(HarmonicPull& system) {
  const smd::PullResult result =
      smd::run_pull(system.engine, *system.pull, system.spec.lambda_max, 5);
  return result.samples.back().work;
}

pore::TranslocationSystem make_pore_chain(const MdRunConfig& run) {
  pore::TranslocationConfig config;
  config.dna.nucleotides = 10;
  config.md.dt = 0.01;
  config.md.threads = run.threads;
  config.md.seed = run.seed;
  config.md.integrator = run.integrator;
  config.md.simd = run.simd;
  config.equilibration_steps = 0;
  return pore::build_translocation_system(config);
}

}  // namespace spice::testkit
