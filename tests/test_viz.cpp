// Visualization substrate: XYZ frames, the ASCII side-view renderer and
// the bench table writer.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "pore/dna.hpp"
#include "pore/profile.hpp"
#include "viz/ascii_render.hpp"
#include "viz/series_writer.hpp"
#include "viz/xyz_writer.hpp"

namespace {

using namespace spice;
using namespace spice::viz;

TEST(XyzWriter, FrameFormat) {
  auto chain = spice::pore::build_ssdna({.nucleotides = 3}, 0.0);
  std::ostringstream os;
  write_xyz_frame(os, chain.topology, chain.positions, "frame 0");
  std::istringstream is(os.str());
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "3");
  std::getline(is, line);
  EXPECT_EQ(line, "frame 0");
  std::getline(is, line);
  EXPECT_EQ(line.substr(0, 4), "NT0 ");
  int body_lines = 1;
  while (std::getline(is, line) && !line.empty()) ++body_lines;
  EXPECT_EQ(body_lines, 3);
}

TEST(XyzWriter, TrajectoryFileAccumulatesFrames) {
  const std::string path = "/tmp/spice_test_traj.xyz";
  auto chain = spice::pore::build_ssdna({.nucleotides = 4}, 0.0);
  {
    XyzTrajectoryWriter writer(path);
    writer.add_frame(chain.topology, chain.positions, "a");
    writer.add_frame(chain.topology, chain.positions, "b");
    EXPECT_EQ(writer.frames_written(), 2u);
  }
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("a\n"), std::string::npos);
  EXPECT_NE(content.find("b\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(AsciiRender, DrawsWallsAndBeads) {
  const auto profile = spice::pore::hemolysin_profile();
  std::vector<Vec3> beads{{0.0, 0.0, -25.0}};
  const std::string image = render_side_view(profile, beads);
  EXPECT_NE(image.find('|'), std::string::npos);  // pore walls visible
  EXPECT_NE(image.find('o'), std::string::npos);  // the bead
  // 40 lines of 61 characters + newlines.
  EXPECT_EQ(image.size(), 40u * 62u);
}

TEST(AsciiRender, BeadRowMatchesItsHeight) {
  const auto profile = spice::pore::hemolysin_profile();
  RenderOptions options;
  std::vector<Vec3> high{{0.0, 0.0, options.z_max - 1.0}};
  std::vector<Vec3> low{{0.0, 0.0, options.z_min + 1.0}};
  const std::string top = render_side_view(profile, high, options);
  const std::string bottom = render_side_view(profile, low, options);
  EXPECT_LT(top.find('o'), bottom.find('o'));  // higher z renders earlier
}

TEST(AsciiRender, IgnoresOutOfRangeBeads) {
  const auto profile = spice::pore::hemolysin_profile();
  std::vector<Vec3> outside{{100.0, 0.0, 0.0}, {0.0, 0.0, 500.0}};
  const std::string image = render_side_view(profile, outside);
  EXPECT_EQ(image.find('o'), std::string::npos);
}

TEST(Table, PrettyAndCsvOutput) {
  Table table({"kappa", "v", "phi"});
  table.add_row({10.0, 12.5, -1.25});
  table.add_row({100.0, 25.0, 0.5});
  EXPECT_EQ(table.rows(), 2u);

  std::ostringstream csv;
  table.write_csv(csv);
  EXPECT_EQ(csv.str().substr(0, 12), "kappa,v,phi\n");
  EXPECT_NE(csv.str().find("100,25,0.5"), std::string::npos);

  std::ostringstream pretty;
  table.write_pretty(pretty, 2);
  EXPECT_NE(pretty.str().find("kappa"), std::string::npos);
  EXPECT_NE(pretty.str().find("-1.25"), std::string::npos);
}

TEST(Table, RowSizeMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({1.0}), PreconditionError);
  EXPECT_THROW((void)table.row(0), PreconditionError);
}

}  // namespace
