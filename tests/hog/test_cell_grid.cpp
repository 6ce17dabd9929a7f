#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "../../src/hog/src/hog_kernels.hpp"
#include "../support/pinned_frames.hpp"
#include "avd/cpu.hpp"
#include "avd/hog/hog.hpp"
#include "avd/image/color.hpp"
#include "avd/image/resize.hpp"

namespace avd::hog {
namespace {

TEST(CellGrid, DimensionsFromImage) {
  const CellGrid g = compute_cell_grid(img::ImageU8(64, 48), {});
  EXPECT_EQ(g.cells_x(), 8);
  EXPECT_EQ(g.cells_y(), 6);
  EXPECT_EQ(g.bins(), 9);
}

TEST(CellGrid, PartialCellsAreDropped) {
  const CellGrid g = compute_cell_grid(img::ImageU8(70, 50), {});
  EXPECT_EQ(g.cells_x(), 8);  // 70/8
  EXPECT_EQ(g.cells_y(), 6);  // 50/8
}

TEST(CellGrid, FlatImageGivesEmptyHistograms) {
  const CellGrid g = compute_cell_grid(img::ImageU8(32, 32, 77), {});
  for (int cy = 0; cy < g.cells_y(); ++cy)
    for (int cx = 0; cx < g.cells_x(); ++cx)
      for (float v : g.cell(cx, cy)) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(CellGrid, EdgeEnergyLandsInCorrectCells) {
  // Vertical edge at x = 16: gradient energy in cell column 1-2 only.
  img::ImageU8 im(32, 16, 0);
  for (int y = 0; y < 16; ++y)
    for (int x = 16; x < 32; ++x) im(x, y) = 200;
  const CellGrid g = compute_cell_grid(im, {});

  auto cell_energy = [&](int cx, int cy) {
    auto h = g.cell(cx, cy);
    return std::accumulate(h.begin(), h.end(), 0.0f);
  };
  EXPECT_GT(cell_energy(1, 0) + cell_energy(2, 0), 100.0f);
  EXPECT_FLOAT_EQ(cell_energy(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(cell_energy(3, 1), 0.0f);
}

TEST(CellGrid, VerticalEdgeEnergyInZeroBin) {
  img::ImageU8 im(16, 16, 0);
  for (int y = 0; y < 16; ++y)
    for (int x = 8; x < 16; ++x) im(x, y) = 200;
  const CellGrid g = compute_cell_grid(im, {});
  // Orientation 0 degrees falls halfway between the last and first bin
  // centres under interpolation; the energy must be split between them.
  auto h = g.cell(1, 1);
  const float wrap_energy = h[0] + h[8];
  float other = 0.0f;
  for (int b = 1; b < 8; ++b) other += h[b];
  EXPECT_GT(wrap_energy, 10.0f * other + 1.0f);
}

TEST(CellGrid, HistogramMassEqualsGradientMass) {
  // Bin interpolation redistributes but conserves magnitude.
  img::ImageU8 im(24, 24);
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 24; ++x)
      im(x, y) = static_cast<std::uint8_t>((x * 13 + y * 29) % 256);
  const GradientField grad = compute_gradients(im);
  const CellGrid g = compute_cell_grid(im, {});

  double hist_mass = 0.0;
  for (int cy = 0; cy < g.cells_y(); ++cy)
    for (int cx = 0; cx < g.cells_x(); ++cx)
      for (float v : g.cell(cx, cy)) hist_mass += v;

  double grad_mass = 0.0;
  for (auto v : grad.magnitude.pixels()) grad_mass += v;

  EXPECT_NEAR(hist_mass, grad_mass, grad_mass * 1e-5);
}

TEST(CellGrid, PerCellMassEqualsGradientMass) {
  // The property behind the wraparound audit (hog.cpp bin interpolation):
  // whatever bins the interpolation touches — including the {last, 0} wrap
  // pair at deg ~ 0/180 — the two weights always sum to 1, so each CELL
  // conserves its pixels' gradient magnitude exactly, not just the whole
  // image.
  img::ImageU8 im(40, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 40; ++x)
      im(x, y) = static_cast<std::uint8_t>((x * 37 + y * 11 + x * y * 3) % 256);
  const GradientField grad = compute_gradients(im);
  const CellGrid g = compute_cell_grid(im, {});

  for (int cy = 0; cy < g.cells_y(); ++cy) {
    for (int cx = 0; cx < g.cells_x(); ++cx) {
      double hist_mass = 0.0;
      for (float v : g.cell(cx, cy)) hist_mass += v;
      double grad_mass = 0.0;
      for (int y = cy * 8; y < (cy + 1) * 8; ++y)
        for (int x = cx * 8; x < (cx + 1) * 8; ++x)
          grad_mass += grad.magnitude(x, y);
      EXPECT_NEAR(hist_mass, grad_mass, grad_mass * 1e-5 + 1e-4)
          << "cell (" << cx << "," << cy << ")";
    }
  }
}

TEST(CellGrid, HorizontalRampSplitsWrapPairEqually) {
  // A pure horizontal ramp has orientation exactly 0 degrees, which sits
  // exactly between the last bin centre (170) and the first (10, via wrap):
  // pos = -0.5, weights 0.5/0.5 on bins {8, 0} — an exact boundary of the
  // interpolation.
  img::ImageU8 im(24, 24);
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 24; ++x)
      im(x, y) = static_cast<std::uint8_t>(10 + 4 * x);
  const CellGrid g = compute_cell_grid(im, {});
  const auto h = g.cell(1, 1);  // interior cell, uniform gradient
  EXPECT_GT(h[0], 0.0f);
  EXPECT_FLOAT_EQ(h[0], h[8]);
  for (int b = 1; b < 8; ++b) EXPECT_FLOAT_EQ(h[b], 0.0f);
}

TEST(CellGrid, DescendingRampAlsoWrapsTo180Boundary) {
  // Negative dx gives atan2 = 180 degrees, which the gradient stage wraps to
  // 0 — the deg ~ 180 boundary must land in the same {8, 0} wrap pair, not
  // overflow past the last bin.
  img::ImageU8 im(24, 24);
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 24; ++x)
      im(x, y) = static_cast<std::uint8_t>(200 - 4 * x);
  const CellGrid g = compute_cell_grid(im, {});
  const auto h = g.cell(1, 1);
  EXPECT_GT(h[0], 0.0f);
  EXPECT_FLOAT_EQ(h[0], h[8]);
  for (int b = 1; b < 8; ++b) EXPECT_FLOAT_EQ(h[b], 0.0f);
}

TEST(CellGrid, VerticalRampLandsExactlyInMiddleBin) {
  // Orientation 90 degrees: pos = 90/20 - 0.5 = 4.0 exactly — zero weight
  // may leak into bin 5.
  img::ImageU8 im(24, 24);
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 24; ++x)
      im(x, y) = static_cast<std::uint8_t>(10 + 4 * y);
  const CellGrid g = compute_cell_grid(im, {});
  const auto h = g.cell(1, 1);
  EXPECT_GT(h[4], 0.0f);
  for (int b = 0; b < 9; ++b) {
    if (b != 4) {
      EXPECT_FLOAT_EQ(h[b], 0.0f) << "bin " << b;
    }
  }
}

/// The cell grid voted straight off compute_gradients, pixel by pixel in
/// row-major order: the oracle the fused vote table reproduces.
CellGrid voted_off_gradients(const img::ImageU8& im, const HogParams& params) {
  const GradientField grad = compute_gradients(im);
  CellGrid voted(im.width() / params.cell_size, im.height() / params.cell_size,
                 params.bins);
  const float bin_width = 180.0f / static_cast<float>(params.bins);
  for (int y = 0; y < voted.cells_y() * params.cell_size; ++y) {
    for (int x = 0; x < voted.cells_x() * params.cell_size; ++x) {
      const float mag = grad.magnitude(x, y);
      if (mag == 0.0f) continue;
      const float pos = grad.orientation_deg(x, y) / bin_width - 0.5f;
      int b0 = static_cast<int>(std::floor(pos));
      const float w1 = pos - static_cast<float>(b0);
      int b1 = b0 + 1;
      if (b0 < 0) b0 += params.bins;
      if (b1 >= params.bins) b1 -= params.bins;
      auto hist = voted.cell(x / params.cell_size, y / params.cell_size);
      hist[b0] += mag * (1.0f - w1);
      hist[b1] += mag * w1;
    }
  }
  return voted;
}

/// Every histogram float of `fused` equals the oracle's.
void expect_grid_equals_oracle(const CellGrid& fused, const img::ImageU8& im,
                               const HogParams& params,
                               const std::string& what) {
  const CellGrid voted = voted_off_gradients(im, params);
  ASSERT_EQ(fused.cells_x(), voted.cells_x()) << what;
  ASSERT_EQ(fused.cells_y(), voted.cells_y()) << what;
  for (int cy = 0; cy < fused.cells_y(); ++cy)
    for (int cx = 0; cx < fused.cells_x(); ++cx) {
      const auto a = fused.cell(cx, cy);
      const auto b = voted.cell(cx, cy);
      for (int bin = 0; bin < params.bins; ++bin)
        ASSERT_EQ(a[bin], b[bin])
            << what << " cell (" << cx << "," << cy << ") bin " << bin;
    }
}

/// Every histogram float of compute_cell_grid equals the oracle's.
void expect_fused_equals_oracle(const img::ImageU8& im, const HogParams& params,
                                const std::string& what) {
  expect_grid_equals_oracle(compute_cell_grid(im, params), im, params, what);
}

/// Pixels that reach both ends of the gradient range, flat runs and ramps.
img::ImageU8 edge_test_image(int w, int h, std::uint32_t seed) {
  img::ImageU8 im(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      seed = seed * 1664525u + 1013904223u;
      const std::uint32_t r = seed >> 24;
      im(x, y) = static_cast<std::uint8_t>(
          r < 64 ? 0 : (r < 128 ? 255 : (r < 160 ? x * 23 + y : r)));
    }
  }
  return im;
}

TEST(CellGrid, FusedLutGridMatchesGradientFieldVotePath) {
  // compute_cell_grid fuses the gradient stage with the vote loop through a
  // (gx, gy) lookup table instead of materialising a GradientField and
  // calling sqrt/atan2 per pixel. The table stores exactly what
  // compute_gradients computes, so the fused grid must equal a grid voted
  // straight off the gradient field — float for float, not approximately.
  img::ImageU8 im(50, 42);
  for (int y = 0; y < 42; ++y)
    for (int x = 0; x < 50; ++x)
      im(x, y) = static_cast<std::uint8_t>((x * 53 + y * 19 + x * y) % 256);
  expect_fused_equals_oracle(im, HogParams{}, "50x42 pattern");

  expect_fused_equals_oracle(
      img::rgb_to_gray(test_support::pinned_day_frame()), HogParams{},
      "day frame");

  // Edge shapes of the two-pass walk. Widths 1 and 2 clamp both horizontal
  // neighbours; 7-17 put the clamped last column inside and outside the
  // usable cells and cover every vector tail of the index pass. Bins 1 has
  // b0 == b1, so one bin takes both shares.
  const int widths[] = {1, 2, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17};
  for (const int bins : {1, 2, 9, 18}) {
    for (const int cell : {1, 2, 3}) {
      for (const int w : widths) {
        for (int h = 1; h <= 3; ++h) {
          HogParams params;
          params.bins = bins;
          params.cell_size = cell;
          const auto seed = static_cast<std::uint32_t>(bins * 131 + w * 7 + h);
          expect_fused_equals_oracle(
              edge_test_image(w, h, seed), params,
              "bins " + std::to_string(bins) + " cell " +
                  std::to_string(cell) + " " + std::to_string(w) + "x" +
                  std::to_string(h));
        }
      }
    }
  }
}

/// One cell-row body of the cell grid, run directly whatever this host's
/// dispatch picked.
struct CellGridBody {
  const char* name;
  bool needs_avx512;
  detail::VoteRow vote_row;
};

void PrintTo(const CellGridBody& body, std::ostream* os) { *os << body.name; }

class CellGridBodies : public ::testing::TestWithParam<CellGridBody> {
 protected:
  void SetUp() override {
    if (GetParam().needs_avx512 && !cpu_has_avx512())
      GTEST_SKIP() << "this CPU has no AVX-512F, so its body cannot run";
  }

  void expect_body_equals_oracle(const img::ImageU8& im,
                                 const HogParams& params,
                                 const std::string& what) const {
    CellGrid grid;
    detail::compute_cell_grid(im, params, grid, GetParam().vote_row);
    expect_grid_equals_oracle(grid, im, params, what);
  }
};

TEST_P(CellGridBodies, MatchGradientFieldVotePathOnEdgeShapes) {
  // The edge shapes of FusedLutGridMatchesGradientFieldVotePath. Bins 1
  // (b0 == b1) and bins 17 and 18 (more than a register's 16 lanes) take
  // the AVX-512 body's scalar fallback; bins 16 fills every lane. Widths
  // 7-17 at cell size 1 leave every tail of its four-cell groups.
  const int widths[] = {1, 2, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17};
  for (const int bins : {1, 2, 9, 16, 17, 18}) {
    for (const int cell : {1, 2, 3}) {
      for (const int w : widths) {
        for (int h = 1; h <= 3; ++h) {
          HogParams params;
          params.bins = bins;
          params.cell_size = cell;
          const auto seed = static_cast<std::uint32_t>(bins * 131 + w * 7 + h);
          expect_body_equals_oracle(
              edge_test_image(w, h, seed), params,
              "bins " + std::to_string(bins) + " cell " +
                  std::to_string(cell) + " " + std::to_string(w) + "x" +
                  std::to_string(h));
        }
      }
    }
  }
}

TEST_P(CellGridBodies, MatchGradientFieldVotePathOnPyramidSizes) {
  // Every 1.25^k level of a 1920x1080 and a 640x360 rendered frame.
  const img::ImageU8 frames[] = {
      img::rgb_to_gray(test_support::pinned_dark_frame_1080()),
      img::rgb_to_gray(test_support::pinned_day_frame())};
  for (const img::ImageU8& frame : frames) {
    for (const img::Size size : test_support::pyramid_sizes(frame)) {
      const img::ImageU8 level =
          size == frame.size() ? frame : img::resize_bilinear(frame, size);
      expect_body_equals_oracle(level, HogParams{},
                                std::to_string(size.width) + "x" +
                                    std::to_string(size.height));
    }
  }
}

/// Central-difference magnitudes either side of the AVX-512 body's
/// small-gradient table (|gx|, |gy| <= 31) and at the far end of the range.
constexpr int kTableEdgeDiffs[] = {30, 31, 32, 33, 255};

/// The clamped central differences of compute_gradients at (x, y).
std::pair<int, int> central_differences(const img::ImageU8& im, int x, int y) {
  return {im.at_clamped(x + 1, y) - im.at_clamped(x - 1, y),
          im.at_clamped(x, y + 1) - im.at_clamped(x, y - 1)};
}

/// Pixels drawn from levels whose differences are the kTableEdgeDiffs, and
/// border lines set so the clamped differences at every border take each
/// of them: column 0 against column 1, column w - 1 against w - 2, and the
/// same for the top and bottom rows.
img::ImageU8 table_edge_image(int w, int h, std::uint32_t seed) {
  static constexpr std::uint8_t kLevels[] = {0, 30, 31, 32, 33, 255};
  img::ImageU8 im(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      seed = seed * 1664525u + 1013904223u;
      im(x, y) = kLevels[(seed >> 24) % 6];
    }
  for (int y = 0; y < h; ++y) {
    const auto d = static_cast<std::uint8_t>(kTableEdgeDiffs[y % 5]);
    im(0, y) = 0;
    im(1, y) = d;
    im(w - 2, y) = d;
    im(w - 1, y) = 0;
  }
  for (int x = 2; x < w - 2; ++x) {
    const auto d = static_cast<std::uint8_t>(kTableEdgeDiffs[x % 5]);
    im(x, 0) = d;
    im(x, 1) = 0;
    im(x, h - 2) = 0;
    im(x, h - 1) = d;
  }
  return im;
}

TEST_P(CellGridBodies, MatchGradientFieldVotePathAtTheSmallTableEdge) {
  // The AVX-512 body reads a small gradient's vote as a ready register and
  // any other's through the full table; pass 1 picks per pixel, in vector
  // steps and in its scalar border and tail columns. Differences of 30-33
  // sit either side of that edge, 255 at the far end. The images' interior
  // columns leave pass 1 vector tails of 14, 2, 9, 1 and 0 columns, and
  // each cell size divides its width, so the clamped last column is voted.
  for (const auto& [w, h, cell] :
       {std::tuple{96, 80, 8}, std::tuple{100, 60, 4}, std::tuple{91, 70, 7},
        std::tuple{51, 50, 1}, std::tuple{66, 40, 2}}) {
    const img::ImageU8 im =
        table_edge_image(w, h, static_cast<std::uint32_t>(w * 31 + h));
    // Every pairing of the edge magnitudes somewhere, and every one of
    // them at each border, so the image tests what it claims to.
    std::set<std::pair<int, int>> pairs;
    std::set<int> left, right, top, bottom;
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        const auto [gx, gy] = central_differences(im, x, y);
        pairs.insert({std::abs(gx), std::abs(gy)});
        if (x == 0) left.insert(std::abs(gx));
        if (x == w - 1) right.insert(std::abs(gx));
        if (y == 0) top.insert(std::abs(gy));
        if (y == h - 1) bottom.insert(std::abs(gy));
      }
    for (const int a : kTableEdgeDiffs) {
      EXPECT_TRUE(left.count(a) && right.count(a) && top.count(a) &&
                  bottom.count(a))
          << w << "x" << h << " border |g| " << a;
      for (const int b : kTableEdgeDiffs)
        EXPECT_TRUE(pairs.count({a, b}))
            << w << "x" << h << " |gx| " << a << " |gy| " << b;
    }
    for (const int bins : {2, 9, 16}) {
      HogParams params;
      params.bins = bins;
      params.cell_size = cell;
      expect_body_equals_oracle(im, params,
                                std::to_string(w) + "x" + std::to_string(h) +
                                    " bins " + std::to_string(bins));
    }
  }
}

TEST_P(CellGridBodies, ReusedGridKeepsNoStaleCell) {
  // The grid is not zero-filled before a scan: each body writes every cell
  // once. One grid reused from a 1080p frame to a 333x197 level (partial
  // cells) and back to a different 1080p frame must hold, every time,
  // exactly the oracle's histograms.
  const img::ImageU8 dark =
      img::rgb_to_gray(test_support::pinned_dark_frame_1080());
  img::ImageU8 inverted = dark;
  for (int y = 0; y < inverted.height(); ++y)
    for (int x = 0; x < inverted.width(); ++x)
      inverted(x, y) = static_cast<std::uint8_t>(255 - inverted(x, y));
  const img::ImageU8 frames[] = {dark, img::resize_bilinear(dark, {333, 197}),
                                 inverted};
  CellGrid grid;
  for (const img::ImageU8& frame : frames) {
    detail::compute_cell_grid(frame, HogParams{}, grid, GetParam().vote_row);
    expect_grid_equals_oracle(grid, frame, HogParams{},
                              std::to_string(frame.width()) + "x" +
                                  std::to_string(frame.height()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryIsa, CellGridBodies,
    ::testing::Values(CellGridBody{"Scalar", false, detail::vote_row_scalar},
                      CellGridBody{"Avx512", true, detail::vote_row_avx512}),
    [](const ::testing::TestParamInfo<CellGridBody>& info) {
      return std::string(info.param.name);
    });

TEST(CellGrid, CustomBinCount) {
  HogParams p;
  p.bins = 6;
  const CellGrid g = compute_cell_grid(img::ImageU8(16, 16), p);
  EXPECT_EQ(g.bins(), 6);
  EXPECT_EQ(g.cell(0, 0).size(), 6u);
}

TEST(CellGrid, ReusedGridMatchesAFreshOne) {
  // One grid written over and over, as the scanner's thread-local grid is:
  // larger, smaller and different-bin images in turn. Every histogram float
  // must be the one a fresh grid gets, whatever the storage held before.
  CellGrid reused;
  int turn = 0;
  for (const auto& [w, h, bins] :
       {std::tuple{96, 80, 9}, std::tuple{40, 24, 9}, std::tuple{72, 88, 6},
        std::tuple{16, 16, 9}, std::tuple{96, 80, 9}}) {
    img::ImageU8 im(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        im(x, y) = static_cast<std::uint8_t>((x * 37 + y * 11 + x * y * turn) % 256);
    HogParams p;
    p.bins = bins;
    compute_cell_grid(im, p, reused);
    const CellGrid fresh = compute_cell_grid(im, p);
    ASSERT_EQ(reused.cells_x(), fresh.cells_x());
    ASSERT_EQ(reused.cells_y(), fresh.cells_y());
    ASSERT_EQ(reused.bins(), fresh.bins());
    for (int cy = 0; cy < fresh.cells_y(); ++cy)
      for (int cx = 0; cx < fresh.cells_x(); ++cx)
        EXPECT_EQ(std::memcmp(reused.cell(cx, cy).data(),
                              fresh.cell(cx, cy).data(),
                              sizeof(float) * fresh.bins()),
                  0)
            << "turn " << turn << " cell " << cx << "," << cy;
    ++turn;
  }
}

TEST(CellGrid, BadParamsThrow) {
  HogParams p;
  p.cell_size = 0;
  EXPECT_THROW(compute_cell_grid(img::ImageU8(8, 8), p), std::invalid_argument);
  p = HogParams{};
  p.bins = 65536;  // past what a vote-table entry can index
  EXPECT_THROW(compute_cell_grid(img::ImageU8(8, 8), p), std::invalid_argument);
}

}  // namespace
}  // namespace avd::hog
