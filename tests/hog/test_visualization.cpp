#include "avd/hog/visualization.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace avd::hog {
namespace {

TEST(HogGlyphs, OutputDimensions) {
  const img::ImageU8 glyphs = visualize_hog(img::ImageU8(64, 32), {}, {});
  EXPECT_EQ(glyphs.size(), (img::Size{8 * 16, 4 * 16}));
}

TEST(HogGlyphs, FlatImageRendersBlack) {
  const img::ImageU8 glyphs = visualize_hog(img::ImageU8(32, 32, 99));
  for (auto v : glyphs.pixels()) EXPECT_EQ(v, 0);
}

TEST(HogGlyphs, VerticalEdgeDrawsVerticalStrokes) {
  // A vertical edge has gradient orientation 0 deg; the glyph stroke is
  // drawn at +90 deg (edge direction), i.e. vertical strokes in the cells
  // containing the edge.
  img::ImageU8 im(32, 32, 0);
  for (int y = 0; y < 32; ++y)
    for (int x = 16; x < 32; ++x) im(x, y) = 200;
  const img::ImageU8 glyphs = visualize_hog(im);

  // The edge column is cell x=1..2; probe the cell centred at (1,1). The
  // orientation-0 energy splits between the 10-deg and 170-deg bins, so the
  // stroke is near-vertical (within +-1 px of the centre column at +-4 rows).
  const int cx = 1 * 16 + 8, cy = 1 * 16 + 8;
  auto max_near = [&](int x, int y) {
    int best = 0;
    for (int dx = -1; dx <= 1; ++dx)
      best = std::max(best, static_cast<int>(glyphs(x + dx, y)));
    return best;
  };
  EXPECT_GT(max_near(cx, cy - 4), 100);
  EXPECT_GT(max_near(cx, cy + 4), 100);
  // Well off the stroke stays dark.
  EXPECT_EQ(glyphs(cx + 6, cy), 0);
}

TEST(HogGlyphs, CustomCellPixels) {
  GlyphParams params;
  params.cell_pixels = 8;
  const img::ImageU8 glyphs = visualize_hog(img::ImageU8(64, 64), {}, params);
  EXPECT_EQ(glyphs.size(), (img::Size{64, 64}));
}

TEST(HogGlyphs, GainBrightens) {
  img::ImageU8 im(32, 32, 0);
  for (int y = 0; y < 32; ++y)
    for (int x = 16; x < 32; ++x) im(x, y) = 60;  // weak edge
  GlyphParams dim;
  dim.gain = 0.5f;
  GlyphParams bright;
  bright.gain = 4.0f;
  // Named locals: a range-for over a temporary's pixels() would read the
  // image after it is destroyed.
  const img::ImageU8 dim_glyphs = visualize_hog(im, {}, dim);
  const img::ImageU8 bright_glyphs = visualize_hog(im, {}, bright);
  std::uint64_t dim_sum = 0, bright_sum = 0;
  for (auto v : dim_glyphs.pixels()) dim_sum += v;
  for (auto v : bright_glyphs.pixels()) bright_sum += v;
  EXPECT_GT(bright_sum, dim_sum);
}

TEST(HogGlyphs, EmptyGridRendersEmptyImage) {
  const CellGrid grid;
  const img::ImageU8 glyphs = render_hog_glyphs(grid);
  EXPECT_TRUE(glyphs.empty());
}

}  // namespace
}  // namespace avd::hog
