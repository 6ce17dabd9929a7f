#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "avd/hog/hog.hpp"

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
  for (int b = 0; b < 9; ++b)
    if (b != 4) EXPECT_FLOAT_EQ(h[b], 0.0f) << "bin " << b;
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
  const HogParams params;
  const CellGrid fused = compute_cell_grid(im, params);

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

  for (int cy = 0; cy < fused.cells_y(); ++cy)
    for (int cx = 0; cx < fused.cells_x(); ++cx) {
      const auto a = fused.cell(cx, cy);
      const auto b = voted.cell(cx, cy);
      for (int bin = 0; bin < params.bins; ++bin)
        EXPECT_EQ(a[bin], b[bin])
            << "cell (" << cx << "," << cy << ") bin " << bin;
    }
}

TEST(CellGrid, CustomBinCount) {
  HogParams p;
  p.bins = 6;
  const CellGrid g = compute_cell_grid(img::ImageU8(16, 16), p);
  EXPECT_EQ(g.bins(), 6);
  EXPECT_EQ(g.cell(0, 0).size(), 6u);
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
