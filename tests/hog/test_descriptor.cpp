#include <gtest/gtest.h>

#include <cmath>

#include "avd/hog/hog.hpp"

namespace avd::hog {
namespace {

img::ImageU8 textured(int w, int h, int seed = 0) {
  img::ImageU8 im(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      im(x, y) = static_cast<std::uint8_t>((x * 31 + y * 57 + seed * 13 + x * y) % 256);
  return im;
}

TEST(DescriptorLength, ClassicDalalTriggsWindow) {
  // 64x128 pedestrian window: 7x15 blocks x 4 cells x 9 bins = 3780.
  EXPECT_EQ(HogParams{}.descriptor_length({64, 128}), 3780u);
}

TEST(DescriptorLength, VehicleWindow) {
  // 64x64: 7x7 blocks x 36 = 1764.
  EXPECT_EQ(HogParams{}.descriptor_length({64, 64}), 1764u);
}

TEST(DescriptorLength, MisalignedWindowThrows) {
  EXPECT_THROW(static_cast<void>(HogParams{}.descriptor_length({60, 64})),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(HogParams{}.descriptor_length({64, 63})),
               std::invalid_argument);
}

TEST(DescriptorLength, TooSmallWindowThrows) {
  EXPECT_THROW(static_cast<void>(HogParams{}.descriptor_length({8, 8})),
               std::invalid_argument);
}

TEST(Descriptor, MatchesDeclaredLength) {
  const auto desc = compute_descriptor(textured(64, 64), {});
  EXPECT_EQ(desc.size(), 1764u);
}

TEST(Descriptor, BlocksAreL2HysNormalised) {
  const HogParams p;
  const auto desc = compute_descriptor(textured(64, 64), p);
  const std::size_t block_len = 4u * p.bins;
  for (std::size_t start = 0; start + block_len <= desc.size();
       start += block_len) {
    double norm2 = 0.0;
    for (std::size_t i = 0; i < block_len; ++i) {
      // Clipping happens before the final renormalisation, so individual
      // entries may exceed the clip value afterwards — but never 1.0.
      EXPECT_LE(desc[start + i], 1.0f);
      EXPECT_GE(desc[start + i], 0.0f);
      norm2 += static_cast<double>(desc[start + i]) * desc[start + i];
    }
    EXPECT_NEAR(norm2, 1.0, 1e-3);
  }
}

TEST(Descriptor, FlatBlockNormalisesToZero) {
  // No gradient energy: the epsilon in the norm keeps the block at zero
  // instead of NaN.
  const auto desc = compute_descriptor(img::ImageU8(64, 64, 55), {});
  for (float v : desc) {
    EXPECT_FALSE(std::isnan(v));
    EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(Descriptor, InvariantToGlobalBrightnessShift) {
  img::ImageU8 a = textured(64, 64);
  img::ImageU8 b = a;
  for (auto& v : b.pixels())
    v = static_cast<std::uint8_t>(std::min(255, v + 30));
  const auto da = compute_descriptor(a, {});
  const auto db = compute_descriptor(b, {});
  // Shifting brightness changes nothing where no clipping happened; allow a
  // small tolerance for saturated pixels.
  double diff = 0.0;
  for (std::size_t i = 0; i < da.size(); ++i)
    diff += std::abs(static_cast<double>(da[i]) - db[i]);
  EXPECT_LT(diff / da.size(), 0.01);
}

TEST(Descriptor, ApproximatelyInvariantToContrastScaling) {
  img::ImageU8 a = textured(64, 64);
  img::ImageU8 b = a;
  for (auto& v : b.pixels()) v = static_cast<std::uint8_t>(v / 2);
  const auto da = compute_descriptor(a, {});
  const auto db = compute_descriptor(b, {});
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < da.size(); ++i) {
    dot += static_cast<double>(da[i]) * db[i];
    na += static_cast<double>(da[i]) * da[i];
    nb += static_cast<double>(db[i]) * db[i];
  }
  EXPECT_GT(dot / std::sqrt(na * nb), 0.95);  // cosine similarity
}

TEST(WindowDescriptor, SubWindowMatchesCroppedImage) {
  // Descriptor of a window assembled from the full-image cell grid must
  // equal the descriptor computed on the cropped window — the memory-reuse
  // equivalence that the hardware pipeline (Fig. 2) relies on.
  const img::ImageU8 full = textured(128, 96);
  const HogParams p;
  const CellGrid grid = compute_cell_grid(full, p);

  const int cell_x = 3, cell_y = 2;
  std::vector<float> from_grid;
  window_descriptor(grid, p, cell_x, cell_y, 8, 8, from_grid);

  const img::ImageU8 crop =
      full.crop({cell_x * 8, cell_y * 8, 64, 64});
  const auto from_crop = compute_descriptor(crop, p);

  ASSERT_EQ(from_grid.size(), from_crop.size());
  // Gradients at the crop border differ (clamped neighbours), so compare
  // with a tolerance over the full vector.
  double diff = 0.0;
  for (std::size_t i = 0; i < from_grid.size(); ++i)
    diff += std::abs(static_cast<double>(from_grid[i]) - from_crop[i]);
  EXPECT_LT(diff / from_grid.size(), 0.02);
}

TEST(WindowDescriptor, OutOfGridThrows) {
  const CellGrid grid = compute_cell_grid(textured(64, 64), {});
  std::vector<float> out;
  EXPECT_THROW(window_descriptor(grid, {}, 4, 4, 8, 8, out), std::out_of_range);
  EXPECT_THROW(window_descriptor(grid, {}, -1, 0, 4, 4, out), std::out_of_range);
}

TEST(WindowDescriptor, ReusesOutputBuffer) {
  const CellGrid grid = compute_cell_grid(textured(64, 64), {});
  std::vector<float> out(9999, -1.0f);
  window_descriptor(grid, {}, 0, 0, 8, 8, out);
  EXPECT_EQ(out.size(), HogParams{}.descriptor_length({64, 64}));
}

TEST(Descriptor, DeterministicAcrossCalls) {
  const img::ImageU8 im = textured(64, 64, 5);
  EXPECT_EQ(compute_descriptor(im, {}), compute_descriptor(im, {}));
}

// Parameterised: descriptor length formula consistency across window sizes.
class DescriptorLengthSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DescriptorLengthSweep, ComputedDescriptorMatchesFormula) {
  const auto [w, h] = GetParam();
  const HogParams p;
  const auto desc = compute_descriptor(textured(w, h), p);
  EXPECT_EQ(desc.size(), p.descriptor_length({w, h}));
}

INSTANTIATE_TEST_SUITE_P(
    Windows, DescriptorLengthSweep,
    ::testing::Values(std::pair{16, 16}, std::pair{32, 64}, std::pair{64, 64},
                      std::pair{64, 128}, std::pair{96, 48}));

}  // namespace
}  // namespace avd::hog
