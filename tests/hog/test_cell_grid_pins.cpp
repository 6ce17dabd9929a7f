// Output pins of compute_cell_grid: FNV-1a over the histogram float bits of
// every pyramid level of two fixed rendered frames, at 9 and 6 bins.
//
// The literals were captured from the per-pixel vote loop the vote table
// replaced; the table promises the same float expressions in the same order,
// so every bit must still match.
//
// Orientation comes from std::atan2, which C libraries need not round
// correctly. The literals hold for the libm they were captured with (glibc
// 2.36, whose atan2f the probe below fingerprints); on a libm with a
// different atan2f the pins cannot say anything about this code and skip.
// FusedLutGridMatchesGradientFieldVotePath still checks the table against
// compute_gradients there.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "../support/pinned_frames.hpp"
#include "avd/hog/hog.hpp"
#include "avd/image/color.hpp"
#include "avd/image/resize.hpp"

namespace avd::hog {
namespace {

using test_support::Fnv1a;

/// Fingerprint of the libm the literals were captured with: atan2f and
/// sqrtf over every central-difference gradient pair.
std::uint64_t libm_fingerprint() {
  Fnv1a h;
  for (int gy = -255; gy <= 255; ++gy) {
    for (int gx = -255; gx <= 255; ++gx) {
      const auto fx = static_cast<float>(gx);
      const auto fy = static_cast<float>(gy);
      const float v[2] = {std::sqrt(fx * fx + fy * fy), std::atan2(fy, fx)};
      h.floats(v);
    }
  }
  return h.h;
}

constexpr std::uint64_t kCaptureLibm = 0xce6e20564c6ba9a8ULL;

std::uint64_t grid_checksum(const CellGrid& g) {
  Fnv1a h;
  for (int cy = 0; cy < g.cells_y(); ++cy)
    for (int cx = 0; cx < g.cells_x(); ++cx) h.floats(g.cell(cx, cy));
  return h.h;
}

/// Pins per pyramid level 0..5.
void expect_pins(const img::RgbImage& frame, int bins,
                 const std::uint64_t (&pins)[6]) {
  if (const std::uint64_t fp = libm_fingerprint(); fp != kCaptureLibm)
    GTEST_SKIP() << "atan2f/sqrtf differ from the capturing libm (fingerprint 0x"
                 << std::hex << fp << ")";
  const img::ImageU8 grey = img::rgb_to_gray(frame);
  const std::vector<img::Size> sizes = test_support::pyramid_sizes(grey);
  ASSERT_EQ(sizes.size(), 6u);
  HogParams params;
  params.bins = bins;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const img::ImageU8 level =
        i == 0 ? grey : img::resize_bilinear(grey, sizes[i]);
    EXPECT_EQ(grid_checksum(compute_cell_grid(level, params)), pins[i])
        << "bins " << bins << " level " << i << " (" << sizes[i].width << "x"
        << sizes[i].height << ")";
  }
}

TEST(CellGridPins, DayFrame9Bins) {
  expect_pins(test_support::pinned_day_frame(), 9,
              {0x08602566df6eec9bULL, 0xdbe4ec6650c047cdULL,
               0xda36f68989c49c0bULL, 0x4f04af2678799e4fULL,
               0xe24979cbf5ec0651ULL, 0x17c8c87d2c54818bULL});
}

TEST(CellGridPins, DayFrame6Bins) {
  expect_pins(test_support::pinned_day_frame(), 6,
              {0xe2ad2cf6fd11dbf8ULL, 0xfd963ff9e01e5199ULL,
               0x6a6ca4e8431a6486ULL, 0xab0c95bb32a07619ULL,
               0x715075824cc2df66ULL, 0xe772f6a2210c3748ULL});
}

TEST(CellGridPins, DarkFrame9Bins) {
  expect_pins(test_support::pinned_dark_frame(), 9,
              {0x8001b17f66d93d76ULL, 0x52161d9c675fd0e2ULL,
               0xc8b2e6551ad26cf0ULL, 0x2de7b4addfae1457ULL,
               0x73aa01117a1008dbULL, 0xa961ff8f3881f082ULL});
}

TEST(CellGridPins, DarkFrame6Bins) {
  expect_pins(test_support::pinned_dark_frame(), 6,
              {0xb3c75c07ec4e08bbULL, 0x66f832ec5dd18853ULL,
               0x69aeddc8548fbb9fULL, 0x5b29a991000f283eULL,
               0x17218dc6ad664c43ULL, 0xb4535f4fa985d291ULL});
}

}  // namespace
}  // namespace avd::hog
