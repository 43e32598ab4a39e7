#include "grid/faults.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace spice::grid {

double FaultInjector::draw_exponential(Rng& rng, double mean, const char* tag) const {
  if (config_.oracle == nullptr) return rng.exponential(mean);
  // Enumerable draw: branch over mid-quantile points of Exp(mean). The
  // seeded stream is still advanced so mixing oracle and seeded runs of
  // the same config stays stream-compatible elsewhere.
  rng.exponential(mean);
  SPICE_REQUIRE(config_.oracle_draw_levels >= 1, "need at least one draw level");
  const auto levels = static_cast<std::size_t>(config_.oracle_draw_levels);
  const std::size_t k = config_.oracle->choose(tag, levels);
  const double p = (static_cast<double>(k) + 0.5) / static_cast<double>(levels);
  return -mean * std::log(1.0 - p);
}

FaultInjector::FaultInjector(Federation& federation, FaultConfig config)
    : federation_(federation), config_(std::move(config)) {
  SPICE_REQUIRE(config_.mean_outage_hours > 0.0, "outage duration must be positive");
  SPICE_REQUIRE(config_.site_mtbf_hours >= 0.0, "MTBF must be non-negative");
}

std::size_t FaultInjector::arm() {
  SPICE_REQUIRE(!armed_, "fault injector already armed");
  armed_ = true;

  for (const auto& outage : config_.scheduled) {
    SPICE_REQUIRE(federation_.find(outage.site) != nullptr,
                  "scheduled outage names unknown site: " + outage.site);
    SPICE_REQUIRE(outage.duration_hours > 0.0, "outage duration must be positive");
    outages_.push_back(outage);
  }

  // Random failure/repair process per site, seeded by (seed, site index):
  // the schedule is a pure function of the config, independent of campaign
  // content, dispatch order, or how many events the DES has processed.
  // Eager mode materializes it all; lazy mode keeps one self-rescheduling
  // event per site, drawing from the SAME per-site stream in the SAME
  // order, so both modes inject a bit-identical schedule.
  std::size_t lazy_armed = 0;
  if (config_.site_mtbf_hours > 0.0) {
    const auto& sites = federation_.sites();
    if (config_.lazy_arming) {
      EventQueue& events = federation_.events();
      site_rngs_.reserve(sites.size());
      for (std::size_t i = 0; i < sites.size(); ++i) {
        site_rngs_.push_back(Rng::stream(config_.seed, 0x6661756c74ULL /*"fault"*/, i));
        const double t =
            draw_exponential(site_rngs_.back(), config_.site_mtbf_hours, "fault.gap");
        if (t < config_.horizon_hours) {
          events.at(t, [this, i] { fire_random(i); });
          ++lazy_armed;
        }
      }
    } else {
      for (std::size_t i = 0; i < sites.size(); ++i) {
        Rng rng = Rng::stream(config_.seed, 0x6661756c74ULL /*"fault"*/, i);
        double t = draw_exponential(rng, config_.site_mtbf_hours, "fault.gap");
        while (t < config_.horizon_hours) {
          const double duration =
              draw_exponential(rng, config_.mean_outage_hours, "fault.len");
          outages_.push_back({sites[i]->name(), t, duration});
          t += duration + draw_exponential(rng, config_.site_mtbf_hours, "fault.gap");
        }
      }
    }
  }

  EventQueue& events = federation_.events();
  for (const auto& outage : outages_) {
    Site* site = federation_.find(outage.site);
    const double until = outage.start_hours + outage.duration_hours;
    SPICE_REQUIRE(outage.start_hours >= events.now(), "outage scheduled in the past");
    events.at(outage.start_hours, [site, until] {
      // A longer outage may already hold the site past `until`;
      // fail_until keeps the later end.
      site->fail_until(until);
    });
  }
  return outages_.size() + lazy_armed;
}

void FaultInjector::fire_random(std::size_t site_index) {
  EventQueue& events = federation_.events();
  Rng& rng = site_rngs_[site_index];
  const double duration = draw_exponential(rng, config_.mean_outage_hours, "fault.len");
  // A longer outage may already hold the site; fail_until keeps the
  // later end (same semantics as the eager path).
  federation_.sites()[site_index]->fail_until(events.now() + duration);
  // Parenthesized exactly like the eager path's `t += duration + gap`, so
  // both modes produce bit-identical outage times.
  const double next =
      events.now() +
      (duration + draw_exponential(rng, config_.site_mtbf_hours, "fault.gap"));
  if (next < config_.horizon_hours) {
    events.at(next, [this, site_index] { fire_random(site_index); });
  }
}

}  // namespace spice::grid
