#include "viz/ascii_render.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace spice::viz {

namespace {
constexpr double kXHalfWidth = 30.0;
constexpr std::size_t kRows = 40;     ///< z resolution
constexpr std::size_t kColumns = 61;  ///< x resolution (odd keeps the axis centred)
constexpr char kBead = 'o';
constexpr char kWall = '|';
constexpr char kEmpty = ' ';
static_assert(kRows >= 2 && kColumns >= 3, "render grid too small");
static_assert(kXHalfWidth > 0.0, "render x half width must be positive");
}  // namespace

std::string render_side_view(const spice::pore::RadiusProfile& profile,
                             std::span<const Vec3> positions, const RenderOptions& options) {
  SPICE_REQUIRE(options.z_max > options.z_min, "render z range empty");

  std::vector<std::string> grid(kRows, std::string(kColumns, kEmpty));

  const double dz = (options.z_max - options.z_min) / static_cast<double>(kRows);
  const double dx = 2.0 * kXHalfWidth / static_cast<double>(kColumns);

  auto column_of = [&](double x) -> int {
    return static_cast<int>(std::floor((x + kXHalfWidth) / dx));
  };

  // Pore walls: for each row, draw the lumen boundary at ±R(z).
  for (std::size_t row = 0; row < kRows; ++row) {
    const double z = options.z_max - (static_cast<double>(row) + 0.5) * dz;
    const double r = profile.radius(z);
    if (r >= kXHalfWidth) continue;
    const int left = column_of(-r);
    const int right = column_of(r);
    if (left >= 0 && left < static_cast<int>(kColumns)) {
      grid[row][static_cast<std::size_t>(left)] = kWall;
    }
    if (right >= 0 && right < static_cast<int>(kColumns)) {
      grid[row][static_cast<std::size_t>(right)] = kWall;
    }
  }

  // Particles (drawn after walls so beads are visible in the lumen).
  for (const auto& p : positions) {
    if (p.z < options.z_min || p.z >= options.z_max) continue;
    const int col = column_of(p.x);
    if (col < 0 || col >= static_cast<int>(kColumns)) continue;
    const auto row = static_cast<std::size_t>((options.z_max - p.z) / dz);
    grid[std::min(row, kRows - 1)][static_cast<std::size_t>(col)] = kBead;
  }

  std::string out;
  out.reserve(kRows * (kColumns + 1));
  for (const auto& line : grid) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace spice::viz
