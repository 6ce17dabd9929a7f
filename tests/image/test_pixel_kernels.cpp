// Each ISA body of the grey/YCbCr and resize kernels, run directly whatever
// this host's dispatch picked, so both bodies are checked in one binary.
// The AVX2 cases skip on a CPU without AVX2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "../../src/image/src/bt601.hpp"
#include "../../src/image/src/pixel_kernels.hpp"
#include "../support/pinned_frames.hpp"
#include "avd/cpu.hpp"
#include "avd/image/color.hpp"

namespace avd::img {
namespace {

using PlaneFn = void (*)(const std::uint8_t*, const std::uint8_t*,
                         const std::uint8_t*, std::uint8_t*, std::size_t);
using ScalarFn = std::uint8_t (*)(std::uint8_t, std::uint8_t, std::uint8_t);

struct PixelBody {
  const char* name;
  bool needs_avx2;
  PlaneFn luma, cb, cr;
  const detail::ResizeBody* resize;
};

// Prints the case by name: gtest's default dumps the struct's bytes, whose
// pointers move with address-space randomisation, so the discovered test
// names would change from one build to the next.
void PrintTo(const PixelBody& body, std::ostream* os) { *os << body.name; }

class PixelBodies : public ::testing::TestWithParam<PixelBody> {
 protected:
  void SetUp() override {
    if (GetParam().needs_avx2 && !cpu_has_avx2())
      GTEST_SKIP() << "this CPU has no AVX2, so its body cannot run";
  }
};

TEST_P(PixelBodies, PlanesMatchScalarOverEveryRgbTriple) {
  // Every (r, g, b): one call per r over all 65,536 (g, b) pairs, each
  // plane against luma_of / cb_of / cr_of.
  const struct {
    const char* name;
    PlaneFn body;
    ScalarFn scalar;
  } planes[] = {{"luma", GetParam().luma, luma_of},
                {"cb", GetParam().cb, cb_of},
                {"cr", GetParam().cr, cr_of}};
  constexpr std::size_t kPairs = 256 * 256;
  std::vector<std::uint8_t> r(kPairs), g(kPairs), b(kPairs), out(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    g[i] = static_cast<std::uint8_t>(i >> 8);
    b[i] = static_cast<std::uint8_t>(i & 0xff);
  }
  for (const auto& plane : planes) {
    for (int rv = 0; rv < 256; ++rv) {
      std::fill(r.begin(), r.end(), static_cast<std::uint8_t>(rv));
      plane.body(r.data(), g.data(), b.data(), out.data(), kPairs);
      for (std::size_t i = 0; i < kPairs; ++i)
        if (out[i] != plane.scalar(r[i], g[i], b[i]))
          FAIL() << plane.name << " of (" << rv << ", " << int{g[i]} << ", "
                 << int{b[i]} << "): " << int{out[i]};
    }
  }
}

TEST_P(PixelBodies, PlanesHandleEveryTailAndOffset) {
  // Short runs from unaligned starts: each writes exactly its n bytes.
  std::vector<std::uint8_t> r(80), g(80), b(80);
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = static_cast<std::uint8_t>(i * 37 + 11);
    g[i] = static_cast<std::uint8_t>(i * 91 + 3);
    b[i] = static_cast<std::uint8_t>(i * 53 + 200);
  }
  for (std::size_t offset = 0; offset < 4; ++offset) {
    for (std::size_t n = 0; n + offset < 72; ++n) {
      std::vector<std::uint8_t> out(80, 0xa5);
      GetParam().luma(r.data() + offset, g.data() + offset, b.data() + offset,
                      out.data() + offset, n);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const bool inside = i >= offset && i < offset + n;
        EXPECT_EQ(out[i], inside ? luma_of(r[i], g[i], b[i]) : 0xa5)
            << "n " << n << " offset " << offset << " byte " << i;
      }
    }
  }
}

/// resize_bilinear computed inline, pixel by pixel: the align-centres map
/// per axis, the horizontal lerps of the two source rows at the column, then
/// the vertical lerp, rounded half away from zero. The kernels promise these
/// float operations in this order for every output byte.
ImageU8 inline_bilinear(const ImageU8& src, Size out_size) {
  if (src.size() == out_size) return src;
  const float sx = static_cast<float>(src.width()) / out_size.width;
  const float sy = static_cast<float>(src.height()) / out_size.height;
  ImageU8 out(out_size);
  for (int oy = 0; oy < out_size.height; ++oy) {
    const float fy = (static_cast<float>(oy) + 0.5f) * sy - 0.5f;
    const int y0 = static_cast<int>(std::floor(fy));
    const float wy = fy - static_cast<float>(y0);
    for (int ox = 0; ox < out_size.width; ++ox) {
      const float fx = (static_cast<float>(ox) + 0.5f) * sx - 0.5f;
      const int x0 = static_cast<int>(std::floor(fx));
      const float wx = fx - static_cast<float>(x0);
      const auto lerp = [&](int y) {
        const float p0 = src.at_clamped(x0, y);
        const float p1 = src.at_clamped(x0 + 1, y);
        return p0 + (p1 - p0) * wx;
      };
      const float top = lerp(std::clamp(y0, 0, src.height() - 1));
      const float bot = lerp(std::clamp(y0 + 1, 0, src.height() - 1));
      out(ox, oy) =
          static_cast<std::uint8_t>(std::lround(top + (bot - top) * wy));
    }
  }
  return out;
}

ImageU8 noise_image(int w, int h, std::uint32_t seed) {
  ImageU8 im(w, h);
  for (std::uint8_t& p : im.pixels()) {
    seed = seed * 1664525u + 1013904223u;
    p = static_cast<std::uint8_t>(seed >> 24);
  }
  return im;
}

void expect_resize_matches(const detail::ResizeBody& body, const ImageU8& src,
                           Size out_size) {
  const ImageU8 got = detail::resize_bilinear(src, out_size, body);
  EXPECT_TRUE(got == inline_bilinear(src, out_size))
      << src.width() << "x" << src.height() << " -> " << out_size.width
      << "x" << out_size.height;
}

TEST_P(PixelBodies, ResizeMatchesInlineOnEverySmallSize) {
  // Every output width 1-40 by height 1-9 from one source (downscales,
  // upscales and every lane tail), and every source of those sizes to one
  // output.
  const ImageU8 wide = noise_image(37, 11, 1);
  for (int w = 1; w <= 40; ++w) {
    for (int h = 1; h <= 9; ++h) {
      expect_resize_matches(*GetParam().resize, wide, {w, h});
      const auto seed = static_cast<std::uint32_t>(w * h);
      expect_resize_matches(*GetParam().resize, noise_image(w, h, seed),
                            {23, 6});
    }
  }
}

TEST_P(PixelBodies, ResizeMatchesInlineOnPyramidSizesAndUpscales) {
  const ImageU8 frames[] = {
      rgb_to_gray(test_support::pinned_dark_frame_1080()),
      rgb_to_gray(test_support::pinned_day_frame())};
  for (const ImageU8& frame : frames) {
    double scale = 1.25;
    for (int level = 1; level < 6; ++level, scale *= 1.25)
      expect_resize_matches(
          *GetParam().resize, frame,
          {static_cast<int>(std::lround(frame.width() / scale)),
           static_cast<int>(std::lround(frame.height() / scale))});
  }
  expect_resize_matches(*GetParam().resize, noise_image(97, 13, 7),
                        {300, 41});
  expect_resize_matches(*GetParam().resize, frames[1], {1001, 563});
}

INSTANTIATE_TEST_SUITE_P(
    EveryIsa, PixelBodies,
    ::testing::Values(
        PixelBody{"Sse2", false, detail::plane_sse2<detail::luma_f>,
                  detail::plane_sse2<detail::cb_f>,
                  detail::plane_sse2<detail::cr_f>, &detail::kResizeSse2},
        PixelBody{"Avx2", true, detail::plane_avx2<detail::luma_f>,
                  detail::plane_avx2<detail::cb_f>,
                  detail::plane_avx2<detail::cr_f>, &detail::kResizeAvx2}),
    [](const ::testing::TestParamInfo<PixelBody>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace avd::img
