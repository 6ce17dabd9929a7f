// Output pins of the front-end colour and resize kernels.
//
// Each literal is an FNV-1a checksum of a kernel's output on a fixed rendered
// frame, captured from the libm-rounding kernels these replaced. The
// rewritten kernels promise the same IEEE operations in the same order, so
// every byte must still match: a pin that moves means the arithmetic
// changed, not that the literal needs refreshing.
#include <gtest/gtest.h>

#include <cstdint>

#include "../support/pinned_frames.hpp"
#include "avd/image/color.hpp"
#include "avd/image/draw.hpp"
#include "avd/image/filter.hpp"
#include "avd/image/resize.hpp"

namespace avd::img {
namespace {

using test_support::checksum;
using test_support::Fnv1a;

struct FramePins {
  std::uint64_t grey, y, cb, cr;
  std::uint64_t resized[5];  ///< pyramid levels 1..5
};

void expect_pins(const RgbImage& frame, const FramePins& pins) {
  const ImageU8 grey = rgb_to_gray(frame);
  EXPECT_EQ(checksum(grey), pins.grey) << "rgb_to_gray";
  const YcbcrImage ycc = rgb_to_ycbcr(frame);
  EXPECT_EQ(checksum(ycc.y), pins.y) << "rgb_to_ycbcr Y";
  EXPECT_EQ(checksum(ycc.cb), pins.cb) << "rgb_to_ycbcr Cb";
  EXPECT_EQ(checksum(ycc.cr), pins.cr) << "rgb_to_ycbcr Cr";
  const std::vector<Size> sizes = test_support::pyramid_sizes(grey);
  ASSERT_EQ(sizes.size(), 6u);
  for (std::size_t i = 1; i < sizes.size(); ++i)
    EXPECT_EQ(checksum(resize_bilinear(grey, sizes[i])), pins.resized[i - 1])
        << "resize_bilinear to " << sizes[i].width << "x" << sizes[i].height;
}

TEST(KernelPins, DayFrame) {
  expect_pins(test_support::pinned_day_frame(),
              {0xd389decbdce68fa0ULL, 0xd389decbdce68fa0ULL,
               0x2032052c89c67807ULL, 0x0454abf2fc95ea8bULL,
               {0xcdba1edda94b61c7ULL, 0x0fd8dca3660b79c6ULL,
                0xcf6443133b448d4cULL, 0xe5b6504e07efb6ffULL,
                0xfd796ea13dd0a8d6ULL}});
}

TEST(KernelPins, DarkFrame) {
  expect_pins(test_support::pinned_dark_frame(),
              {0x2cfc7e67b5b31f79ULL, 0x2cfc7e67b5b31f79ULL,
               0x740e2166ef91f2b2ULL, 0x9e87d47beda3e780ULL,
               {0x4b124317c7a9a710ULL, 0x36c3b04b66e732d5ULL,
                0x8d07c385fb7aed7bULL, 0xce55bb44291baffbULL,
                0x18e1c6fb9aa73a90ULL}});
}

TEST(KernelPins, ScalarConversionsOverEveryRgbTriple) {
  Fnv1a luma, cb, cr;
  for (int r = 0; r < 256; ++r) {
    for (int g = 0; g < 256; ++g) {
      std::uint8_t row[3][256];
      for (int b = 0; b < 256; ++b) {
        const auto ur = static_cast<std::uint8_t>(r);
        const auto ug = static_cast<std::uint8_t>(g);
        const auto ub = static_cast<std::uint8_t>(b);
        row[0][b] = luma_of(ur, ug, ub);
        row[1][b] = cb_of(ur, ug, ub);
        row[2][b] = cr_of(ur, ug, ub);
      }
      luma.bytes(row[0]);
      cb.bytes(row[1]);
      cr.bytes(row[2]);
    }
  }
  EXPECT_EQ(luma.h, 0x53267366492537e8ULL) << "luma_of";
  EXPECT_EQ(cb.h, 0xea424f658e055474ULL) << "cb_of";
  EXPECT_EQ(cr.h, 0x386c5110b94e8d1fULL) << "cr_of";
}

TEST(KernelPins, InverseConversionBlurAndBlend) {
  const RgbImage dark = test_support::pinned_dark_frame();
  const RgbImage back = ycbcr_to_rgb(rgb_to_ycbcr(dark));
  EXPECT_EQ(Fnv1a{}
                .bytes(back.r().pixels())
                .bytes(back.g().pixels())
                .bytes(back.b().pixels())
                .h,
            0xa8857c4282d56b76ULL)
      << "ycbcr_to_rgb";

  RgbImage day = test_support::pinned_day_frame();
  EXPECT_EQ(checksum(gaussian_blur(rgb_to_gray(day), 1.2)),
            0x5199aaa99a065403ULL)
      << "gaussian_blur";
  blend_rect(day, {100, 80, 300, 200}, {40, 200, 90}, 0.35f);
  EXPECT_EQ(Fnv1a{}
                .bytes(day.r().pixels())
                .bytes(day.g().pixels())
                .bytes(day.b().pixels())
                .h,
            0xbc8cc79e907aa8bbULL)
      << "blend_rect";
}

}  // namespace
}  // namespace avd::img
