#include "md/ensemble_engine.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "md/state_arena.hpp"
#include "obs/obs.hpp"

namespace spice::md {

EnsembleEngine::EnsembleEngine(const Engine& master, std::span<const std::uint64_t> seeds,
                               EnsembleConfig config) {
  SPICE_REQUIRE(!seeds.empty(), "ensemble needs at least one replica");
  auto arena =
      std::make_shared<StateArena>(master.topology().particle_count(), seeds.size());
  MdConfig cfg = master.config();
  // One worker per replica step: the ensemble pool is the only parallelism
  // layer, so a replica's slice pipeline runs serially — exactly the
  // threads = 1 standalone engine the determinism contract compares to.
  cfg.threads = 1;
  replicas_.reserve(seeds.size());
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    cfg.seed = seeds[r];
    replicas_.push_back(master.clone_with(cfg, arena, r));
  }
  // `threads` counts compute threads and parallel_for runs one range on
  // the caller, so the pool holds the rest (no more than replicas - 1).
  const std::size_t compute_threads = std::min(config.threads, seeds.size());
  if (compute_threads > 1) pool_ = std::make_unique<ThreadPool>(compute_threads - 1);
  static obs::Counter& built = obs::metrics().counter("md.ensemble.replicas");
  built.add(seeds.size());
}

EnsembleEngine::~EnsembleEngine() = default;
EnsembleEngine::EnsembleEngine(EnsembleEngine&&) noexcept = default;
EnsembleEngine& EnsembleEngine::operator=(EnsembleEngine&&) noexcept = default;

void EnsembleEngine::add_contribution(std::size_t r,
                                      std::shared_ptr<ForceContribution> contribution) {
  SPICE_REQUIRE(r < replicas_.size(), "replica index out of range");
  replicas_[r].add_contribution(std::move(contribution));
}

void EnsembleEngine::remove_contribution(std::size_t r,
                                         const ForceContribution* contribution) {
  SPICE_REQUIRE(r < replicas_.size(), "replica index out of range");
  replicas_[r].remove_contribution(contribution);
}

void EnsembleEngine::step_all(std::size_t n) {
  static obs::Counter& steps = obs::metrics().counter("md.ensemble.replica_steps");
  // Pool workers start with an empty thread-local context, so the caller's
  // context is captured here and re-installed (narrowed per replica) inside
  // each worker — engine spans then carry campaign.job.replica ids.
  const obs::TraceContext caller_ctx = obs::current_context();
  auto run = [this, n, caller_ctx](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      obs::ContextScope scope(caller_ctx.with_replica(r));
      SPICE_RECORD_SPAN("md.ensemble.replica_step");
      replicas_[r].step(n);
    }
  };
  if (pool_) {
    pool_->parallel_for(replicas_.size(), run);
  } else {
    run(0, replicas_.size());
  }
  steps.add(n * replicas_.size());
}

}  // namespace spice::md
