#include "md/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/serialize.hpp"
#include "common/units.hpp"
#include "obs/obs.hpp"

namespace spice::md {

namespace {
/// kcal/mol per amu·(Å/ps)²: converts m·v² to energy. Shared with the
/// analytic references in common/units so the integrator and the physics
/// invariant suite can never disagree on the kinetic unit.
constexpr double kMv2ToKcalMol = units::kMv2ToKcalMol;
/// Å/ps² per (kcal/mol/Å)/amu: converts F/m to acceleration.
constexpr double kForceOverMassToAcc = units::kForceOverMassToAcc;
/// Force-pipeline slice count for an n-particle system, S(n) =
/// min(kMaxForceSlices, ceil(n / kParticlesPerSlice)). A pure function of
/// n, never of the thread count, so the summation order (and thus the
/// trajectory) is the same at any number of threads. Tiny systems — the
/// paper's 12-bead strand — run as one slice on the caller; 512 particles
/// and up get the full 16.
constexpr std::size_t kMaxForceSlices = 16;
constexpr std::size_t kParticlesPerSlice = 32;
constexpr std::size_t force_slices(std::size_t n) {
  return std::min(kMaxForceSlices, (n + kParticlesPerSlice - 1) / kParticlesPerSlice);
}
static_assert(force_slices(12) == 1 && force_slices(33) == 2 && force_slices(512) == 16);

/// Langevin noise for one particle at the step `streams` is keyed to.
Vec3 langevin_noise(const Rng::StreamFamily& streams, std::size_t particle) {
  Rng rng = streams.at(particle);
  return {rng.gaussian(), rng.gaussian(), rng.gaussian()};
}

constexpr double kNeighborSkin = 2.0;  ///< Verlet skin, Å

constexpr std::uint32_t kCheckpointMagic = 0x53504943;  // "SPIC"
constexpr std::uint32_t kCheckpointVersion = 2;
}  // namespace

Engine::Engine(Topology topology, NonbondedParams nonbonded, MdConfig config)
    : Engine(std::move(topology), nonbonded, config, nullptr, 0) {}

Engine::Engine(Topology topology, NonbondedParams nonbonded, MdConfig config,
               std::shared_ptr<StateArena> arena, std::size_t replica)
    : topology_(std::move(topology)), nonbonded_(nonbonded), config_(config) {
  SPICE_REQUIRE(config_.dt > 0.0, "timestep must be positive");
  SPICE_REQUIRE(config_.temperature >= 0.0, "temperature must be non-negative");
  SPICE_REQUIRE(config_.friction > 0.0, "Langevin friction must be positive");
  SPICE_REQUIRE(nonbonded_.debye_length > 0.0, "Debye length must be positive");
  SPICE_REQUIRE(nonbonded_.dielectric > 0.0, "dielectric constant must be positive");
  SPICE_REQUIRE(nonbonded_.epsilon_wca >= 0.0, "WCA well depth must be non-negative");
  const std::size_t n = topology_.particle_count();
  SPICE_REQUIRE(n > 0, "engine needs at least one particle");
  simd_level_ = simd::resolve(config_.simd);
  // Exclusions must be sorted before kernels query them from parallel
  // slices (Topology::finalize documents the contract).
  topology_.finalize();
  if (arena != nullptr) {
    state_.reset(topology_, std::move(arena), replica);
  } else {
    state_.reset(topology_);
  }
  neighbor_list_ = std::make_unique<NeighborList>(nonbonded_.cutoff, kNeighborSkin);
  slice_count_ = force_slices(n);
  // `threads` counts compute threads, and parallel_for runs one range on
  // the caller, so the pool holds the rest — no more than the slices can
  // use. A one-slice system never leaves the caller and gets no pool.
  const std::size_t compute_threads = std::min(config_.threads, slice_count_);
  if (compute_threads > 1) pool_ = std::make_unique<ThreadPool>(compute_threads - 1);
  kernels_.push_back(std::make_unique<BondKernel>());
  kernels_.push_back(std::make_unique<AngleKernel>());
  kernels_.push_back(std::make_unique<DihedralKernel>());
  kernels_.push_back(std::make_unique<NonbondedKernel>());
}

Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

void Engine::set_positions(std::span<const Vec3> xs) {
  SPICE_REQUIRE(xs.size() == state_.size(), "position count mismatch");
  state_.set_positions(xs);
  forces_current_ = false;
}

void Engine::set_velocities(std::span<const Vec3> vs) {
  SPICE_REQUIRE(vs.size() == state_.size(), "velocity count mismatch");
  state_.set_velocities(vs);
}

void Engine::initialize_velocities(double temperature_k) {
  SPICE_REQUIRE(temperature_k >= 0.0, "temperature must be non-negative");
  const auto mass = state_.mass();
  auto v = state_.velocities();
  for (std::size_t i = 0; i < state_.size(); ++i) {
    Rng rng = Rng::stream(config_.seed, 0x76656c /*"vel"*/, i);
    const double sigma = std::sqrt(units::kB * temperature_k / (mass[i] * kMv2ToKcalMol));
    v[i].x = rng.gaussian(0.0, sigma);
    v[i].y = rng.gaussian(0.0, sigma);
    v[i].z = rng.gaussian(0.0, sigma);
  }
}

void Engine::add_contribution(std::shared_ptr<ForceContribution> contribution) {
  SPICE_REQUIRE(contribution != nullptr, "null force contribution");
  contributions_.push_back(std::move(contribution));
  forces_current_ = false;
}

void Engine::remove_contribution(const ForceContribution* contribution) {
  std::erase_if(contributions_, [contribution](const std::shared_ptr<ForceContribution>& c) {
    return c.get() == contribution;
  });
  forces_current_ = false;
}

void Engine::evaluate_forces() {
  SPICE_RECORD_SPAN("md.force_eval");
  {
    static obs::Counter& evals = obs::metrics().counter("md.engine.force_evals");
    evals.add(1);
  }
  // Per-kernel time attribution and the three phase spans are opt-in (obs
  // detail mode): up to 16 slices × 4 kernels × 2 clock reads per
  // evaluation is measurable, so the default tier records one span. A
  // clock read never touches simulation state, so trajectories stay
  // bit-identical with detail on (test_md_determinism locks this in).
  const bool detail = obs::detail_on();
  double phase_start_us = detail ? obs::now_us() : 0.0;
  const auto end_phase = [&](const char* name) {
    if (!detail) return;
    const double now = obs::now_us();
    obs::flight_recorder().record_at(obs::RecordKind::Span, name, phase_start_us,
                                     now - phase_start_us, obs::current_context());
    phase_start_us = now;
  };

  // Serial phase: refresh the neighbour list, run per-kernel and
  // per-contribution serial hooks.
  const auto xs = std::as_const(state_).positions();
  neighbor_list_->maybe_rebuild(xs, topology_);

  const KernelContext ctx{&state_, &topology_,   &nonbonded_, neighbor_list_.get(),
                          time_,   slice_count_, simd_level_};
  for (const auto& k : kernels_) k->begin_evaluation(ctx);

  const std::size_t n = state_.size();
  workspace_.configure(n, slice_count_, contributions_.size());
  external_base_.assign(contributions_.size(), 0.0);
  for (std::size_t c = 0; c < contributions_.size(); ++c) {
    external_base_[c] = contributions_[c]->begin_evaluation(xs, topology_, time_);
  }
  end_phase("md.force_eval.prepare");

  std::vector<obs::Counter*> kernel_ns;
  if (detail) {
    kernel_ns.reserve(kernels_.size());
    for (const auto& k : kernels_) {
      kernel_ns.push_back(
          &obs::metrics().counter("md.kernel." + std::string(k->name()) + ".ns"));
    }
  }

  // Parallel phase: S(n) slices regardless of thread count.
  auto run_slices = [&](std::size_t begin, std::size_t end) {
    // Chunk-local per-kernel time, flushed once per chunk so the counters
    // see one add per kernel instead of one per slice.
    std::array<double, 8> chunk_kernel_us{};
    for (std::size_t s = begin; s < end; ++s) {
      ForceAccumulator& acc = workspace_.acquire_slice(s);
      for (std::size_t ki = 0; ki < kernels_.size(); ++ki) {
        const double k0 = detail ? obs::now_us() : 0.0;
        workspace_.energy(s, kernels_[ki]->term()) +=
            kernels_[ki]->evaluate_slice(ctx, s, slice_count_, acc);
        if (detail && ki < chunk_kernel_us.size()) {
          chunk_kernel_us[ki] += obs::now_us() - k0;
        }
      }
      if (!contributions_.empty()) {
        const std::size_t lo = n * s / slice_count_;
        const std::size_t hi = n * (s + 1) / slice_count_;
        acc.note_range(lo, hi);
        for (std::size_t c = 0; c < contributions_.size(); ++c) {
          workspace_.external_energy(s, c) +=
              contributions_[c]->accumulate_range(xs, topology_, time_, lo, hi, acc.span());
        }
      }
    }
    if (detail) {
      for (std::size_t ki = 0; ki < kernel_ns.size() && ki < chunk_kernel_us.size(); ++ki) {
        kernel_ns[ki]->add(static_cast<std::uint64_t>(chunk_kernel_us[ki] * 1e3));
      }
    }
  };
  if (pool_) {
    pool_->parallel_for(slice_count_, run_slices);
  } else {
    run_slices(0, slice_count_);
  }
  end_phase("md.force_eval.parallel");

  // Deterministic reduction: ascending slice order per particle / term.
  workspace_.reduce_forces(state_.forces(), pool_.get());
  end_phase("md.force_eval.reduce");

  energies_.bond = workspace_.reduced_energy(EnergyTerm::Bond);
  energies_.angle = workspace_.reduced_energy(EnergyTerm::Angle);
  energies_.dihedral = workspace_.reduced_energy(EnergyTerm::Dihedral);
  energies_.nonbonded = workspace_.reduced_energy(EnergyTerm::Nonbonded);
  energies_.external = 0.0;
  energies_.external_terms.clear();  // keeps its capacity across evaluations
  for (std::size_t c = 0; c < contributions_.size(); ++c) {
    const double e = external_base_[c] + workspace_.reduced_external(c);
    energies_.external += e;
    energies_.external_terms.push_back({contributions_[c]->name(), e});
  }
  forces_current_ = true;
}

void Engine::ensure_forces_current() {
  if (!forces_current_) evaluate_forces();
}

const EnergyBreakdown& Engine::compute_energies() {
  evaluate_forces();
  return energies_;
}

double Engine::kinetic_energy() const {
  const auto mass = state_.mass();
  const auto v = state_.velocities();
  double mv2 = 0.0;
  for (std::size_t i = 0; i < state_.size(); ++i) mv2 += mass[i] * v[i].norm2();
  return 0.5 * mv2 * kMv2ToKcalMol;
}

double Engine::instantaneous_temperature() const {
  const auto dof = static_cast<double>(3 * state_.size());
  return 2.0 * kinetic_energy() / (dof * units::kB);
}

void Engine::step(std::size_t n) {
  static obs::Counter& steps = obs::metrics().counter("md.engine.steps");
  for (std::size_t s = 0; s < n; ++s) {
    steps.add(1);
    switch (config_.integrator) {
      case IntegratorKind::VelocityVerlet:
        step_velocity_verlet();
        break;
      case IntegratorKind::Langevin:
        step_langevin();
        break;
    }
    ++step_count_;
    SPICE_ENSURE(time_ == static_cast<double>(step_count_) * config_.dt,
                 "integrator failed to advance time");
  }
}

void Engine::step_velocity_verlet() {
  ensure_forces_current();
  const double dt = config_.dt;
  const std::size_t n = state_.size();
  const auto inv_mass = state_.inv_mass();
  const auto x = state_.positions();
  const auto v = state_.velocities();
  const auto f = std::as_const(state_).forces();
  for (std::size_t i = 0; i < n; ++i) {
    const double kick = 0.5 * dt * inv_mass[i] * kForceOverMassToAcc;
    v[i] += f[i] * kick;
    x[i] += v[i] * dt;
  }
  // Forces for the closing half-kick belong to time t + dt (this matters
  // for time-dependent potentials such as the moving SMD anchor).
  time_ = static_cast<double>(step_count_ + 1) * dt;
  evaluate_forces();
  for (std::size_t i = 0; i < n; ++i) {
    const double kick = 0.5 * dt * inv_mass[i] * kForceOverMassToAcc;
    v[i] += f[i] * kick;
  }
}

void Engine::step_langevin() {
  // BAOAB splitting (Leimkuhler–Matthews): B half-kick, A half-drift,
  // O Ornstein–Uhlenbeck, A half-drift, B half-kick.
  ensure_forces_current();
  const double dt = config_.dt;
  const double c1 = std::exp(-config_.friction * dt);
  const double kbt = units::kB * config_.temperature;
  const std::size_t n = state_.size();
  const auto mass = state_.mass();
  const auto inv_mass = state_.inv_mass();
  // Noise streams are keyed by (seed, particle, step); the seed and step
  // coordinates are mixed once here rather than once per particle.
  const Rng::StreamFamily noise_streams(config_.seed, 0x6c616e /*"lan"*/, step_count_);

  const auto x = state_.positions();
  const auto v = state_.velocities();
  const auto f = std::as_const(state_).forces();
  for (std::size_t i = 0; i < n; ++i) {
    const double kick = 0.5 * dt * inv_mass[i] * kForceOverMassToAcc;
    v[i] += f[i] * kick;
    x[i] += v[i] * (0.5 * dt);
    const double sigma = std::sqrt((1.0 - c1 * c1) * kbt / (mass[i] * kMv2ToKcalMol));
    v[i] = v[i] * c1 + langevin_noise(noise_streams, i) * sigma;
    x[i] += v[i] * (0.5 * dt);
  }
  time_ = static_cast<double>(step_count_ + 1) * dt;
  evaluate_forces();
  for (std::size_t i = 0; i < n; ++i) {
    const double kick = 0.5 * dt * inv_mass[i] * kForceOverMassToAcc;
    v[i] += f[i] * kick;
  }
}

Checkpoint Engine::checkpoint() const {
  BinaryWriter w;
  w.write_u32(kCheckpointMagic);
  w.write_u32(kCheckpointVersion);
  w.write_u64(topology_.particle_count());
  w.write_u64(step_count_);
  w.write_f64(time_);
  w.write_u64(config_.seed);
  w.write_vec3_span(state_.positions());
  w.write_vec3_span(state_.velocities());
  // Neighbour-list reference positions (v2): the rebuild schedule and the
  // cell-table iteration order — and with them the floating-point
  // accumulation order of the nonbonded forces — are functions of the
  // positions the list was last built from. Without them a restored
  // engine rebuilds on its own cadence and the continuation drifts in the
  // last bits (caught by the testkit checkpoint-replay property at high
  // seed counts).
  w.write_vec3_span(neighbor_list_->reference_positions());
  return Checkpoint{w.take()};
}

void Engine::restore(const Checkpoint& snapshot) {
  BinaryReader r(snapshot.bytes);
  SPICE_REQUIRE(r.read_u32() == kCheckpointMagic, "not a SPICE checkpoint");
  SPICE_REQUIRE(r.read_u32() == kCheckpointVersion, "unsupported checkpoint version");
  const std::uint64_t n = r.read_u64();
  SPICE_REQUIRE(n == topology_.particle_count(), "checkpoint particle count mismatch");
  step_count_ = r.read_u64();
  time_ = r.read_f64();
  config_.seed = r.read_u64();
  const std::vector<Vec3> xs = r.read_vec3_vector();
  const std::vector<Vec3> vs = r.read_vec3_vector();
  SPICE_ENSURE(xs.size() == n && vs.size() == n, "corrupt checkpoint");
  state_.set_positions(xs);
  state_.set_velocities(vs);
  const std::vector<Vec3> refs = r.read_vec3_vector();
  SPICE_ENSURE(refs.empty() || refs.size() == n, "corrupt checkpoint");
  // Rebuild the neighbour list from the snapshot's reference positions so
  // the displacement criterion and the cell-table iteration order continue
  // exactly as they would have in the checkpointed engine. An empty
  // reference means the original had never built its list; building from
  // the restored positions matches what its first evaluation would do.
  neighbor_list_->rebuild(std::span<const Vec3>(refs.empty() ? xs : refs), topology_);
  forces_current_ = false;
}

Engine Engine::clone(std::uint64_t clone_seed) const {
  MdConfig cfg = config_;
  cfg.seed = clone_seed;
  return clone_with(cfg, nullptr, 0);
}

Engine Engine::clone_with(MdConfig config, std::shared_ptr<StateArena> arena,
                          std::size_t replica) const {
  Engine copy(topology_, nonbonded_, config, std::move(arena), replica);
  copy.state_.set_positions(state_.positions());
  copy.state_.set_velocities(state_.velocities());
  copy.time_ = time_;
  copy.step_count_ = step_count_;
  copy.contributions_ = contributions_;
  return copy;
}

}  // namespace spice::md
