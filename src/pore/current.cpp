#include "pore/current.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace spice::pore {

namespace {
constexpr double kConductivity = 1.0;  ///< bulk solution conductivity, arbitrary-but-fixed units
constexpr std::size_t kSlices = 50;
/// Minimum open fraction per slice (a fully plugged slice still leaks a
/// little in experiment; also keeps the series sum finite).
constexpr double kMinOpenFraction = 0.05;
static_assert(kSlices >= 2, "current model needs at least two slices");
static_assert(kConductivity > 0.0, "conductivity must be positive");
static_assert(kMinOpenFraction > 0.0 && kMinOpenFraction <= 1.0,
              "min open fraction must be in (0, 1]");

/// Cross-sectional area a sphere of radius r centred at (x, y, zb)
/// occludes in the slice at height z (disc of the sphere at that height,
/// clipped to non-negative).
double sphere_slice_area(const Vec3& bead, double r, double z) {
  const double dz = z - bead.z;
  const double disc2 = r * r - dz * dz;
  return disc2 > 0.0 ? std::numbers::pi * disc2 : 0.0;
}
}  // namespace

double pore_conductance(const RadiusProfile& profile, std::span<const Vec3> positions,
                        double bead_radius, const CurrentModelParams& params) {
  SPICE_REQUIRE(params.z_hi > params.z_lo, "current model needs z_hi > z_lo");

  const double dz = (params.z_hi - params.z_lo) / static_cast<double>(kSlices);
  double resistance = 0.0;
  for (std::size_t s = 0; s < kSlices; ++s) {
    const double z = params.z_lo + (static_cast<double>(s) + 0.5) * dz;
    const double lumen_radius = profile.radius(z);
    const double lumen_area = std::numbers::pi * lumen_radius * lumen_radius;
    double occluded = 0.0;
    for (const auto& bead : positions) {
      // Only beads actually inside the lumen occlude it.
      const double rho2 = bead.x * bead.x + bead.y * bead.y;
      if (rho2 > lumen_radius * lumen_radius) continue;
      occluded += sphere_slice_area(bead, bead_radius, z);
    }
    const double open_area =
        std::max(lumen_area - occluded, kMinOpenFraction * lumen_area);
    resistance += dz / (kConductivity * open_area);
  }
  return 1.0 / resistance;
}

double ionic_current(const RadiusProfile& profile, std::span<const Vec3> positions,
                     double bead_radius, const CurrentModelParams& params) {
  return pore_conductance(profile, positions, bead_radius, params) * params.voltage_mv;
}

double open_pore_current(const RadiusProfile& profile, const CurrentModelParams& params) {
  return ionic_current(profile, {}, 0.0, params);
}

std::vector<BlockadeEvent> detect_blockade_events(std::span<const double> current_trace,
                                                  double open_current, double threshold,
                                                  std::size_t min_samples) {
  SPICE_REQUIRE(open_current > 0.0, "open current must be positive");
  SPICE_REQUIRE(threshold > 0.0 && threshold < 1.0, "threshold must be in (0, 1)");
  SPICE_REQUIRE(min_samples >= 1, "min_samples must be at least 1");

  std::vector<BlockadeEvent> events;
  std::size_t start = 0;
  bool in_event = false;
  double sum = 0.0;
  double deepest = 1.0;

  auto close_event = [&](std::size_t end) {
    if (end - start >= min_samples) {
      BlockadeEvent e;
      e.start_index = start;
      e.end_index = end;
      e.dwell_samples = static_cast<double>(end - start);
      e.mean_blockade = sum / static_cast<double>(end - start);
      e.min_blockade = deepest;
      events.push_back(e);
    }
  };

  for (std::size_t i = 0; i < current_trace.size(); ++i) {
    const double fraction = current_trace[i] / open_current;
    if (fraction < threshold) {
      if (!in_event) {
        in_event = true;
        start = i;
        sum = 0.0;
        deepest = 1.0;
      }
      sum += fraction;
      deepest = std::min(deepest, fraction);
    } else if (in_event) {
      in_event = false;
      close_event(i);
    }
  }
  if (in_event) close_event(current_trace.size());
  return events;
}

}  // namespace spice::pore
