// The fused dark front end, taillight_roi_mask(RgbImage, params, factor),
// against the three kernels it fuses: rgb_to_ycbcr, taillight_roi_mask on the
// YCbCr planes, then downsample_or or the resize_nearest fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "../support/pinned_frames.hpp"
#include "../support/taillight_configs.hpp"
#include "avd/image/color.hpp"
#include "avd/image/resize.hpp"
#include "avd/image/threshold.hpp"

namespace avd::img {
namespace {

using test_support::threshold_configs;

/// The three-kernel front end the fused pass must reproduce byte for byte.
ImageU8 unfused_mask(const RgbImage& rgb, const TaillightThresholdParams& p,
                     int factor) {
  const ImageU8 mask = taillight_roi_mask(rgb_to_ycbcr(rgb), p);
  if (rgb.width() % factor == 0 && rgb.height() % factor == 0)
    return downsample_or(mask, factor);
  return resize_nearest(mask, {std::max(1, rgb.width() / factor),
                               std::max(1, rgb.height() / factor)});
}

RgbImage random_rgb(int w, int h, std::uint32_t seed) {
  std::mt19937 rng(seed);
  RgbImage rgb(w, h);
  for (ImageU8* plane : {&rgb.r(), &rgb.g(), &rgb.b()})
    for (std::uint8_t& v : plane->pixels())
      v = static_cast<std::uint8_t>(rng() & 0xffU);
  return rgb;
}

TEST(FusedTaillightMask, EveryRgbTripleMatchesTheYcbcrThreshold) {
  // All 2^24 triples as a 4096x4096 frame, built in 16 strips of 256 rows:
  // pixel i of the frame has r = i >> 16, g = (i >> 8) & 255, b = i & 255.
  const std::vector<TaillightThresholdParams> configs = threshold_configs();
  constexpr int kWidth = 4096;
  constexpr int kStripRows = 256;
  RgbImage strip(kWidth, kStripRows);
  for (int s = 0; s < 16; ++s) {
    for (int y = 0; y < kStripRows; ++y) {
      for (int x = 0; x < kWidth; ++x) {
        const int i = (s * kStripRows + y) * kWidth + x;
        strip.set_pixel(x, y,
                        {static_cast<std::uint8_t>(i >> 16),
                         static_cast<std::uint8_t>((i >> 8) & 0xff),
                         static_cast<std::uint8_t>(i & 0xff)});
      }
    }
    const YcbcrImage ycc = rgb_to_ycbcr(strip);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const ImageU8 want = taillight_roi_mask(ycc, configs[c]);
      const ImageU8 got = taillight_roi_mask(strip, configs[c], 1);
      ASSERT_EQ(got, want) << "strip " << s << ", config " << c;
    }
  }
}

TEST(FusedTaillightMask, MatchesOrPoolingAndNearestFallback) {
  // 1920x1080, 9x9 and 3x1 divide by 3 (OR pooling); 640x360 and 2x2 do not
  // (nearest fallback, 2x2 down to 1x1). Other factors cover both paths too.
  const Size sizes[] = {{1920, 1080}, {640, 360}, {9, 9}, {3, 1}, {2, 2}};
  const std::vector<TaillightThresholdParams> configs = threshold_configs();
  std::uint32_t seed = 1;
  for (const Size size : sizes) {
    const RgbImage rgb = random_rgb(size.width, size.height, seed++);
    for (const int factor : {1, 2, 3, 4}) {
      for (std::size_t c = 0; c < configs.size(); ++c)
        ASSERT_EQ(taillight_roi_mask(rgb, configs[c], factor),
                  unfused_mask(rgb, configs[c], factor))
            << size.width << "x" << size.height << " factor " << factor
            << " config " << c;
    }
  }
}

TEST(FusedTaillightMask, MatchesOnRenderedDarkFrames) {
  for (const RgbImage& frame : {test_support::pinned_dark_frame_1080(),
                                test_support::pinned_dark_frame()}) {
    const ImageU8 got = taillight_roi_mask(frame, {}, 3);
    EXPECT_GT(count_nonzero(got), 0u);
    EXPECT_EQ(got, unfused_mask(frame, {}, 3))
        << frame.width() << "x" << frame.height();
  }
}

TEST(FusedTaillightMask, RejectsBadFactorAndEmptyFallback) {
  const RgbImage rgb(6, 6);
  EXPECT_THROW((void)taillight_roi_mask(rgb, {}, 0), std::invalid_argument);
  EXPECT_THROW((void)taillight_roi_mask(rgb, {}, -3), std::invalid_argument);
  // An empty frame divides by any factor: an empty mask, as downsample_or.
  EXPECT_TRUE(taillight_roi_mask(RgbImage(0, 0), {}, 3).empty());
  // A zero-width frame that does not divide has nothing to sample, which
  // resize_nearest refuses too.
  EXPECT_THROW((void)taillight_roi_mask(RgbImage(0, 4), {}, 3),
               std::invalid_argument);
}

}  // namespace
}  // namespace avd::img
