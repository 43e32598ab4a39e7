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
#include "viz/ppm.hpp"
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

// --- PPM images ---------------------------------------------------------------

TEST(Ppm, EncodeHasValidHeaderAndSize) {
  Image image(4, 3, {10, 20, 30});
  const auto bytes = image.encode_ppm();
  const std::string header(bytes.begin(), bytes.begin() + 11);
  EXPECT_EQ(header, "P6\n4 3\n255\n");
  EXPECT_EQ(bytes.size(), 11u + 4u * 3u * 3u);
  EXPECT_EQ(bytes[11], 10);  // first pixel r
  EXPECT_EQ(bytes[13], 30);  // first pixel b
}

TEST(Ppm, SetAndGetPixels) {
  Image image(2, 2);
  image.set(1, 0, {255, 0, 0});
  EXPECT_EQ(image.at(1, 0).r, 255);
  EXPECT_EQ(image.at(0, 1).r, 0);
  EXPECT_THROW((void)image.at(2, 0), PreconditionError);
  EXPECT_THROW(image.set(0, 2, {}), PreconditionError);
}

TEST(Ppm, DivergingColormapEndpoints) {
  const Rgb cold = diverging_colormap(0.0);
  const Rgb mid = diverging_colormap(0.5);
  const Rgb hot = diverging_colormap(1.0);
  EXPECT_GT(cold.b, cold.r);  // blue end
  EXPECT_EQ(mid.r, 255);      // white middle
  EXPECT_EQ(mid.g, 255);
  EXPECT_GT(hot.r, hot.b);    // red end
  // Clamping.
  EXPECT_EQ(diverging_colormap(-5.0).b, cold.b);
  EXPECT_EQ(diverging_colormap(5.0).r, hot.r);
}

TEST(Ppm, HeatmapScalesToDataRange) {
  const std::vector<std::vector<double>> field{{0.0, 1.0}, {0.5, 0.25}};
  const Image image = heatmap(field, 4);
  EXPECT_EQ(image.width(), 8u);
  EXPECT_EQ(image.height(), 8u);
  // Min cell is the blue end, max cell the red end.
  EXPECT_GT(image.at(0, 0).b, image.at(0, 0).r);
  EXPECT_GT(image.at(7, 0).r, image.at(7, 0).b);
}

TEST(Ppm, HeatmapRejectsRaggedField) {
  const std::vector<std::vector<double>> ragged{{1.0, 2.0}, {3.0}};
  EXPECT_THROW(heatmap(ragged), PreconditionError);
}

TEST(Ppm, SaveAndReloadFile) {
  const std::string path = "/tmp/spice_test_image.ppm";
  Image image(3, 3, {1, 2, 3});
  image.save_ppm(path);
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content.substr(0, 3), "P6\n");
  EXPECT_EQ(content.size(), 11u + 27u);
  std::remove(path.c_str());
}

}  // namespace
