#pragma once
// ASCII side-view renderer: projects the system onto the x–z plane with
// the pore lumen outline, used by examples and the Fig. 3 bench to show
// the strand threading (and stretching through) the constriction without
// an actual visualization engine.

#include <span>
#include <string>

#include "common/vec3.hpp"
#include "pore/profile.hpp"

namespace spice::viz {

struct RenderOptions {
  double z_min = -70.0;
  double z_max = 50.0;
};

/// Render the pore outline and particle positions; one row per z band,
/// top row = z_max. Returns a newline-joined string.
[[nodiscard]] std::string render_side_view(const spice::pore::RadiusProfile& profile,
                                           std::span<const Vec3> positions,
                                           const RenderOptions& options = {});

}  // namespace spice::viz
