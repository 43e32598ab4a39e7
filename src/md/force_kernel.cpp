#include "md/force_kernel.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "md/system_state.hpp"
#include "md/topology.hpp"

namespace spice::md {

namespace {
/// Share [lo, hi) of `total` items assigned to slice s of S.
struct Share {
  std::size_t lo;
  std::size_t hi;
};
Share share_of(std::size_t total, std::size_t slice, std::size_t slice_count) {
  return {total * slice / slice_count, total * (slice + 1) / slice_count};
}
}  // namespace

// --- ForceWorkspace ------------------------------------------------------

void ForceWorkspace::configure(std::size_t particles, std::size_t slices,
                               std::size_t external_terms) {
  constexpr auto kTerms = static_cast<std::size_t>(EnergyTerm::kCount);
  if (slices_.size() != slices || particles_ != particles) {
    slices_.assign(slices, ForceAccumulator{});
    for (auto& s : slices_) {
      s.forces_.assign(particles, Vec3{});
      s.lo_ = particles;
      s.hi_ = 0;
    }
    particles_ = particles;
  }
  term_energy_.assign(slices * kTerms, 0.0);
  external_terms_ = external_terms;
  external_energy_.assign(slices * external_terms, 0.0);
}

ForceAccumulator& ForceWorkspace::acquire_slice(std::size_t s) {
  ForceAccumulator& acc = slices_[s];
  // Invariant: outside the touched window the buffer is already zero.
  for (std::size_t i = acc.lo_; i < acc.hi_; ++i) acc.forces_[i] = Vec3{};
  acc.lo_ = particles_;
  acc.hi_ = 0;
  constexpr auto kTerms = static_cast<std::size_t>(EnergyTerm::kCount);
  std::fill_n(term_energy_.begin() + static_cast<std::ptrdiff_t>(s * kTerms), kTerms, 0.0);
  std::fill_n(external_energy_.begin() + static_cast<std::ptrdiff_t>(s * external_terms_),
              external_terms_, 0.0);
  return acc;
}

void ForceWorkspace::reduce_forces(std::span<Vec3> forces, ThreadPool* pool) const {
  auto reduce_range = [this, &forces](std::size_t begin, std::size_t end) {
    // Slice-major over the range: zero, then add each slice's touched
    // window clipped to [begin, end). Per particle this still sums the
    // slices in ascending order — the same rounding as the historical
    // particle-major loop and independent of how particles are chunked
    // across threads — but the inner loops are dense and branch-free
    // instead of testing every slice window per particle.
    std::fill(forces.begin() + static_cast<std::ptrdiff_t>(begin),
              forces.begin() + static_cast<std::ptrdiff_t>(end), Vec3{});
    for (const auto& s : slices_) {
      const std::size_t lo = std::max(begin, s.lo_);
      const std::size_t hi = std::min(end, s.hi_);
      for (std::size_t i = lo; i < hi; ++i) forces[i] += s.forces_[i];
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(particles_, reduce_range);
  } else {
    reduce_range(0, particles_);
  }
}

double ForceWorkspace::reduced_energy(EnergyTerm term) const {
  constexpr auto kTerms = static_cast<std::size_t>(EnergyTerm::kCount);
  double total = 0.0;
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    total += term_energy_[s * kTerms + static_cast<std::size_t>(term)];
  }
  return total;
}

double ForceWorkspace::reduced_external(std::size_t contribution) const {
  double total = 0.0;
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    total += external_energy_[s * external_terms_ + contribution];
  }
  return total;
}

// --- bonded kernels ------------------------------------------------------

void BondKernel::begin_evaluation(const KernelContext& ctx) {
  // The bond table is immutable after Topology::finalize, so the packed
  // index/parameter streams and per-slice windows only rebuild when the
  // slice count changes (or on first use).
  if (packed_.built && packed_.slice_count == ctx.slice_count) return;
  const auto& bonds = ctx.topology->bonds();
  packed_.i.clear();
  packed_.j.clear();
  packed_.k.clear();
  packed_.r0.clear();
  packed_.i.reserve(bonds.size());
  packed_.j.reserve(bonds.size());
  packed_.k.reserve(bonds.size());
  packed_.r0.reserve(bonds.size());
  for (const Bond& bond : bonds) {
    packed_.i.push_back(static_cast<std::uint32_t>(bond.i));
    packed_.j.push_back(static_cast<std::uint32_t>(bond.j));
    packed_.k.push_back(bond.k);
    packed_.r0.push_back(bond.r0);
  }
  packed_.lo.assign(ctx.slice_count, 0);
  packed_.hi.assign(ctx.slice_count, 0);
  for (std::size_t s = 0; s < ctx.slice_count; ++s) {
    const auto [lo, hi] = share_of(bonds.size(), s, ctx.slice_count);
    std::size_t plo = ctx.state->size();
    std::size_t phi = 0;
    for (std::size_t b = lo; b < hi; ++b) {
      plo = std::min<std::size_t>(plo, std::min(bonds[b].i, bonds[b].j));
      phi = std::max<std::size_t>(phi, std::max(bonds[b].i, bonds[b].j) + 1);
    }
    packed_.lo[s] = plo;
    packed_.hi[s] = phi;
  }
  packed_.slice_count = ctx.slice_count;
  packed_.built = true;
}

double BondKernel::evaluate_slice(const KernelContext& ctx, std::size_t slice,
                                  std::size_t slice_count, ForceAccumulator& acc) {
  const auto [lo, hi] = share_of(packed_.i.size(), slice, slice_count);
  if (lo >= hi) return 0.0;
  acc.note_range(packed_.lo[slice], packed_.hi[slice]);
  const simd::BondBatch batch{ctx.state->positions().data(),
                              packed_.i.data() + lo,
                              packed_.j.data() + lo,
                              packed_.k.data() + lo,
                              packed_.r0.data() + lo,
                              hi - lo};
  return simd::bond_kernel(ctx.simd)(batch, acc.span().data());
}

double AngleKernel::evaluate_slice(const KernelContext& ctx, std::size_t slice,
                                   std::size_t slice_count, ForceAccumulator& acc) {
  const auto& angles = ctx.topology->angles();
  const auto xs = ctx.state->positions();
  const auto [lo, hi] = share_of(angles.size(), slice, slice_count);
  double energy = 0.0;
  for (std::size_t a = lo; a < hi; ++a) {
    const Angle& angle = angles[a];
    Vec3 fi;
    Vec3 fj;
    Vec3 fk;
    energy += harmonic_angle(xs[angle.i], xs[angle.j], xs[angle.k], angle.k_theta,
                             angle.theta0, fi, fj, fk);
    acc.add(angle.i, fi);
    acc.add(angle.j, fj);
    acc.add(angle.k, fk);
  }
  return energy;
}

double DihedralKernel::evaluate_slice(const KernelContext& ctx, std::size_t slice,
                                      std::size_t slice_count, ForceAccumulator& acc) {
  const auto& dihedrals = ctx.topology->dihedrals();
  const auto xs = ctx.state->positions();
  const auto [lo, hi] = share_of(dihedrals.size(), slice, slice_count);
  double energy = 0.0;
  for (std::size_t d = lo; d < hi; ++d) {
    const Dihedral& dih = dihedrals[d];
    Vec3 fi;
    Vec3 fj;
    Vec3 fk;
    Vec3 fl;
    energy += periodic_dihedral(xs[dih.i], xs[dih.j], xs[dih.k], xs[dih.l], dih.k_phi,
                                dih.multiplicity, dih.delta, fi, fj, fk, fl);
    acc.add(dih.i, fi);
    acc.add(dih.j, fj);
    acc.add(dih.k, fk);
    acc.add(dih.l, fl);
  }
  return energy;
}

// --- nonbonded kernel ----------------------------------------------------

void NonbondedKernel::begin_evaluation(const KernelContext& ctx) {
  // Size the segment table serially: slices may not mutate the vector
  // itself (a lazy resize inside evaluate_slice is a data race against the
  // other slices' element reads). assign() rather than resize() so a
  // slice-count change also invalidates every cached epoch.
  if (segments_.size() != ctx.slice_count) {
    segments_.assign(ctx.slice_count, SliceSegment{});
  }
}

void NonbondedKernel::refresh_segment(const KernelContext& ctx, std::size_t slice,
                                      std::size_t slice_count) {
  SliceSegment& seg = segments_[slice];
  seg.pi.clear();
  seg.pj.clear();
  seg.sigma.clear();
  seg.pref.clear();
  seg.sig2f.clear();
  seg.pref_f.clear();
  const NeighborList& list = *ctx.neighbors;
  // Filter against the positions the cell bins were built from, not the
  // current ones. On the normal path they are the same array (a refresh
  // always follows a rebuild within one evaluation), but after a
  // checkpoint restore the list is rebuilt from the snapshot's reference
  // positions — filtering against those keeps the segment a pure function
  // of the cell table, so a restored engine replays bit-exactly.
  const auto xs = list.reference_positions();
  const double reach = list.cutoff() + list.skin();
  const double reach2 = reach * reach;
  const auto q = ctx.state->charge();
  const auto radius = ctx.state->sigma();
  const double coulomb_pref = units::kCoulomb / ctx.nonbonded->dielectric;
  std::size_t lo = ctx.state->size();
  std::size_t hi = 0;
  list.for_each_candidate_pair(slice, slice_count, [&](std::uint32_t a, std::uint32_t b) {
    if (distance2(xs[a], xs[b]) > reach2) return;
    if (ctx.topology->excluded(a, b)) return;
    // Per-pair streams: indices plus σᵢ+σⱼ and the full Coulomb prefactor
    // (0 for neutral pairs, which is exactly the kernels' DH mask). The
    // prefactor is coulomb_pref·(qᵢ·qⱼ), charge product first: for charges
    // other than ±1/0 the other association rounds differently, and
    // KernelPipeline.ScalarKernelsMatchReferenceLoopsBitwise pins this one.
    const double sigma = radius[a] + radius[b];
    const double pref = coulomb_pref * (q[a] * q[b]);
    seg.pi.push_back(a);
    seg.pj.push_back(b);
    seg.sigma.push_back(sigma);
    seg.pref.push_back(pref);
    seg.sig2f.push_back(static_cast<float>(sigma * sigma));
    seg.pref_f.push_back(static_cast<float>(pref));
    lo = std::min<std::size_t>(lo, std::min(a, b));
    hi = std::max<std::size_t>(hi, std::max(a, b) + 1);
  });
  seg.lo = lo;
  seg.hi = hi;
  seg.epoch = list.epoch();
}

double NonbondedKernel::evaluate_slice(const KernelContext& ctx, std::size_t slice,
                                       std::size_t slice_count, ForceAccumulator& acc) {
  SPICE_REQUIRE(slice < segments_.size(), "nonbonded segments not sized in begin_evaluation");
  if (segments_[slice].epoch != ctx.neighbors->epoch()) {
    refresh_segment(ctx, slice, slice_count);
  }
  const SliceSegment& seg = segments_[slice];
  if (seg.pi.empty()) return 0.0;
  acc.note_range(seg.lo, seg.hi);

  // Per-evaluation constants, hoisted out of the pair loop: the DH cutoff
  // shift (a second exp) and the WCA 2^(1/3) factor.
  const NonbondedParams& params = *ctx.nonbonded;
  const double inv_lambda = 1.0 / params.debye_length;
  const simd::NonbondedConsts consts{
      params.cutoff * params.cutoff, params.epsilon_wca, inv_lambda,
      std::exp(-params.cutoff * inv_lambda) / params.cutoff, std::cbrt(2.0)};
  const simd::PairBatch batch{ctx.state->positions().data(),
                              seg.pi.data(),
                              seg.pj.data(),
                              seg.sigma.data(),
                              seg.pref.data(),
                              seg.sig2f.data(),
                              seg.pref_f.data(),
                              seg.pi.size()};
  return simd::nonbonded_kernel(ctx.simd)(batch, consts, acc.span().data());
}

}  // namespace spice::md
