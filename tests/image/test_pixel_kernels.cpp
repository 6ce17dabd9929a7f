// Each ISA body of the grey/YCbCr, taillight-mask and resize kernels, run
// directly whatever this host's dispatch picked, so every body is checked in
// one binary. The AVX2 cases skip on a CPU without AVX2, the AVX-512 cases on
// a CPU without AVX-512.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "../../src/image/src/bt601.hpp"
#include "../../src/image/src/pixel_kernels.hpp"
#include "../support/pinned_frames.hpp"
#include "../support/taillight_configs.hpp"
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

/// Skips the test where this CPU cannot run the body.
bool cpu_lacks(bool needs_avx2, bool needs_avx512) {
  return (needs_avx2 && !cpu_has_avx2()) ||
         (needs_avx512 && !cpu_has_avx512());
}

struct MaskBody {
  const char* name;
  bool needs_avx2, needs_avx512;
  detail::MaskRowFn row;
};

void PrintTo(const MaskBody& body, std::ostream* os) { *os << body.name; }

class MaskBodies : public ::testing::TestWithParam<MaskBody> {
 protected:
  void SetUp() override {
    if (cpu_lacks(GetParam().needs_avx2, GetParam().needs_avx512))
      GTEST_SKIP() << "this CPU cannot run the " << GetParam().name << " body";
  }
};

/// The unfused gate: the rounded YCbCr bytes against the thresholds.
bool ycbcr_hit(std::uint8_t y, std::uint8_t cb, std::uint8_t cr,
               const TaillightThresholdParams& p) {
  return y >= p.luma_min && cr >= p.cr_min && cb <= p.cb_max;
}

TEST_P(MaskBodies, EveryRgbTripleMatchesTheYcbcrThreshold) {
  // Every (r, g, b), one row per r over all 65,536 (g, b) pairs, for the
  // default thresholds and each gate's edge values.
  const std::vector<TaillightThresholdParams> configs =
      test_support::threshold_configs();
  constexpr std::size_t kPairs = 256 * 256;
  std::vector<std::uint8_t> r(kPairs), g(kPairs), b(kPairs), hits(kPairs);
  std::vector<std::uint8_t> y(kPairs), cb(kPairs), cr(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    g[i] = static_cast<std::uint8_t>(i >> 8);
    b[i] = static_cast<std::uint8_t>(i & 0xff);
  }
  for (int rv = 0; rv < 256; ++rv) {
    std::fill(r.begin(), r.end(), static_cast<std::uint8_t>(rv));
    for (std::size_t i = 0; i < kPairs; ++i) {
      y[i] = luma_of(r[i], g[i], b[i]);
      cb[i] = cb_of(r[i], g[i], b[i]);
      cr[i] = cr_of(r[i], g[i], b[i]);
    }
    for (std::size_t c = 0; c < configs.size(); ++c) {
      std::fill(hits.begin(), hits.end(), std::uint8_t{0});
      GetParam().row(r.data(), g.data(), b.data(),
                     detail::SumBounds(configs[c]), hits.data(), kPairs);
      for (std::size_t i = 0; i < kPairs; ++i)
        if (hits[i] != ycbcr_hit(y[i], cb[i], cr[i], configs[c]))
          FAIL() << "config " << c << ", (" << rv << ", " << int{g[i]}
                 << ", " << int{b[i]} << "): " << int{hits[i]};
    }
  }
}

TEST_P(MaskBodies, EveryRowTailOrsOnlyItsBytes) {
  // Rows of 1-17 and 63-65 pixels from unaligned starts: each ORs its hit
  // into exactly its n entries (a set entry stays set) and leaves the
  // bytes around them alone.
  TaillightThresholdParams p;  // loose gates, so rows hold hits and misses
  p.luma_min = 60;
  p.cr_min = 135;
  p.cb_max = 140;
  const detail::SumBounds bounds(p);
  std::mt19937 rng(5);
  std::vector<std::uint8_t> r(80), g(80), b(80);
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = static_cast<std::uint8_t>(rng() & 0xffU);
    g[i] = static_cast<std::uint8_t>(rng() & 0x7fU);
    b[i] = static_cast<std::uint8_t>(rng() & 0x7fU);
  }
  std::size_t seen[2] = {0, 0};
  std::vector<std::size_t> widths;
  for (std::size_t n = 1; n <= 17; ++n) widths.push_back(n);
  for (std::size_t n = 63; n <= 65; ++n) widths.push_back(n);
  for (const std::size_t n : widths) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      std::vector<std::uint8_t> hits(80, 0xa5);
      for (std::size_t i = offset; i < offset + n; ++i)
        hits[i] = static_cast<std::uint8_t>(i % 3 == 0);
      GetParam().row(r.data() + offset, g.data() + offset, b.data() + offset,
                     bounds, hits.data() + offset, n);
      for (std::size_t i = 0; i < hits.size(); ++i) {
        if (i < offset || i >= offset + n) {
          EXPECT_EQ(hits[i], 0xa5) << "n " << n << " offset " << offset
                                   << " byte " << i;
          continue;
        }
        const bool hit = ycbcr_hit(luma_of(r[i], g[i], b[i]),
                                   cb_of(r[i], g[i], b[i]),
                                   cr_of(r[i], g[i], b[i]), p);
        ++seen[hit];
        EXPECT_EQ(hits[i], (i % 3 == 0) | hit)
            << "n " << n << " offset " << offset << " byte " << i;
      }
    }
  }
  EXPECT_GT(seen[0], 0u);
  EXPECT_GT(seen[1], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EveryIsa, MaskBodies,
    ::testing::Values(MaskBody{"Sse2", false, false, detail::mask_row_sse2},
                      MaskBody{"Avx2", true, false, detail::mask_row_avx2},
                      MaskBody{"Avx512", false, true,
                               detail::mask_row_avx512}),
    [](const ::testing::TestParamInfo<MaskBody>& info) {
      return std::string(info.param.name);
    });

/// The horizontal lerps of one source row computed inline, column by column,
/// as inline_bilinear does: the reference for every horizontal-pass body.
std::vector<float> inline_row_lerps(const std::vector<std::uint8_t>& row,
                                    int out_w) {
  const int src_w = static_cast<int>(row.size());
  const float sx = static_cast<float>(src_w) / out_w;
  std::vector<float> h(static_cast<std::size_t>(out_w));
  for (int ox = 0; ox < out_w; ++ox) {
    const float fx = (static_cast<float>(ox) + 0.5f) * sx - 0.5f;
    const int x0 = static_cast<int>(std::floor(fx));
    const float wx = fx - static_cast<float>(x0);
    const auto at = [&](int x) {
      return row[static_cast<std::size_t>(std::clamp(x, 0, src_w - 1))];
    };
    const float p0 = at(x0);
    const float p1 = at(x0 + 1);
    h[static_cast<std::size_t>(ox)] = p0 + (p1 - p0) * wx;
  }
  return h;
}

/// The source pixels the columns of group g read, first to last, from the
/// inline map: what a window must cover.
int group_span(int src_w, int out_w, int g) {
  const float sx = static_cast<float>(src_w) / out_w;
  const auto x_of = [&](int ox) {
    return static_cast<int>(
        std::floor((static_cast<float>(ox) + 0.5f) * sx - 0.5f));
  };
  const int first = static_cast<int>(detail::kResizeLanes) * g;
  const int last =
      std::min(first + static_cast<int>(detail::kResizeLanes), out_w) - 1;
  return std::clamp(x_of(last) + 1, 0, src_w - 1) -
         std::clamp(x_of(first), 0, src_w - 1) + 1;
}

/// Whether every group of a resize from src_w to out_w columns fits one
/// window of a row at least a window wide.
bool fits_windows(int src_w, int out_w) {
  constexpr auto kWindow = static_cast<int>(detail::kResizeWindow);
  if (src_w < kWindow) return false;
  const int groups = (out_w + static_cast<int>(detail::kResizeLanes) - 1) /
                     static_cast<int>(detail::kResizeLanes);
  for (int g = 0; g < groups; ++g)
    if (group_span(src_w, out_w, g) > kWindow) return false;
  return true;
}

/// The narrowest output of a 1920-pixel row whose groups still fit windows,
/// and one column narrower, the widest that falls back to gathers (past a
/// ~4.1x downscale).
std::pair<int, int> span_limit_widths() {
  int w = 1920 / 4;
  while (fits_windows(1920, w - 1)) --w;
  while (!fits_windows(1920, w)) ++w;
  return {w, w - 1};
}

/// (source width, output width) pairs for the row tests: narrow sources on
/// either side of one window, upsampling, the 1.25^k levels of 1920 and 640
/// columns, and the span limit.
std::vector<std::pair<int, int>> row_cases() {
  std::vector<std::pair<int, int>> cases;
  for (const int src_w : {1, 63, 64, 65, 127})
    for (const int out_w : {1, 7, 16, 17, 33, 50, 100, 2 * src_w + 3})
      cases.emplace_back(src_w, out_w);
  for (const int src_w : {640, 1920}) {
    double scale = 1.25;
    for (int k = 1; src_w / scale >= 8; ++k, scale *= 1.25)
      cases.emplace_back(src_w,
                         static_cast<int>(std::lround(src_w / scale)));
  }
  const auto [windowed, fallback] = span_limit_widths();
  cases.emplace_back(1920, windowed);
  cases.emplace_back(1920, fallback);
  return cases;
}

TEST(ResizeColumnMap, WindowsSitInsideTheRowAndCoverEveryColumn) {
  // The permute body's maps, checked wherever this runs: each real column's
  // two source pixels at base + rel, every window inside the row, padding
  // lanes at rel 0, and windows exactly where every group fits one.
  constexpr auto kWindow = static_cast<std::int32_t>(detail::kResizeWindow);
  bool clamped = false;
  for (const auto& [src_w, out_w] : row_cases()) {
    const detail::ColumnMap map(src_w, out_w);
    SCOPED_TRACE(std::to_string(src_w) + " -> " + std::to_string(out_w));
    ASSERT_EQ(map.windowed(), fits_windows(src_w, out_w));
    if (!map.windowed()) continue;
    ASSERT_EQ(map.base.size() * detail::kResizeLanes, map.padded);
    for (std::size_t ox = 0; ox < map.padded; ++ox) {
      const std::int32_t base = map.base[ox / detail::kResizeLanes];
      ASSERT_GE(base, 0);
      ASSERT_LE(base, src_w - kWindow);
      ASSERT_GE(map.rel0[ox], 0);
      ASSERT_LT(map.rel1[ox], kWindow);
      if (ox >= static_cast<std::size_t>(out_w)) {
        EXPECT_EQ(map.rel0[ox], 0);
        EXPECT_EQ(map.rel1[ox], 0);
        continue;
      }
      EXPECT_EQ(base + map.rel0[ox], map.x0[ox]) << "column " << ox;
      EXPECT_EQ(base + map.rel1[ox], map.x1[ox]) << "column " << ox;
      if (ox % detail::kResizeLanes == 0 && base < map.x0[ox]) clamped = true;
    }
  }
  // Some group's base was pulled back to src_w - 64 (e.g. 127 -> 100).
  EXPECT_TRUE(clamped);
}

struct ResizeCase {
  const char* name;
  bool needs_avx2, needs_avx512;
  const detail::ResizeBody* body;
};

void PrintTo(const ResizeCase& c, std::ostream* os) { *os << c.name; }

class ResizeBodies : public ::testing::TestWithParam<ResizeCase> {
 protected:
  void SetUp() override {
    if (cpu_lacks(GetParam().needs_avx2, GetParam().needs_avx512))
      GTEST_SKIP() << "this CPU cannot run the " << GetParam().name << " body";
  }
};

/// Whether the first n floats of a and b have the same bits.
bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST_P(ResizeBodies, RowLerpsMatchTheInlineLerp) {
  // Each horizontal pass over a row allocated to exactly its width, so a
  // window read past the row's end is a heap overflow (caught under
  // ASan): the gather pass against the inline lerp, and, where the body
  // has one and the map is windowed, the permute pass against both. Only
  // real columns compare: padding lanes read different in-row pixels.
  const detail::ResizeBody& body = *GetParam().body;
  std::mt19937 rng(11);
  int windowed = 0;
  for (const auto& [src_w, out_w] : row_cases()) {
    SCOPED_TRACE(std::to_string(src_w) + " -> " + std::to_string(out_w));
    std::vector<std::uint8_t> row(static_cast<std::size_t>(src_w));
    for (std::uint8_t& p : row) p = static_cast<std::uint8_t>(rng() & 0xffU);
    const std::vector<float> want = inline_row_lerps(row, out_w);
    const detail::ColumnMap map(src_w, out_w);
    std::vector<float> wide(map.src_w), gathered(map.padded);
    body.lerp_source_row(row.data(), map, wide.data(), gathered.data());
    EXPECT_TRUE(same_bits(gathered.data(), want.data(), want.size()));
    if (body.lerp_source_windows == nullptr || !map.windowed()) continue;
    ++windowed;
    std::vector<float> permuted(map.padded, -1.0f);
    body.lerp_source_windows(row.data(), map, permuted.data());
    EXPECT_TRUE(same_bits(permuted.data(), want.data(), want.size()));
    EXPECT_TRUE(same_bits(permuted.data(), gathered.data(), want.size()));
  }
  if (body.lerp_source_windows != nullptr) {
    EXPECT_GT(windowed, 20);
  }
}

void expect_body_matches_inline(const detail::ResizeBody& body,
                                const ImageU8& src, Size out_size) {
  const ImageU8 got = detail::resize_bilinear(src, out_size, body);
  EXPECT_TRUE(got == inline_bilinear(src, out_size))
      << src.width() << "x" << src.height() << " -> " << out_size.width
      << "x" << out_size.height;
}

TEST_P(ResizeBodies, MatchInlineOnNarrowSourcesAndTheSpanLimit) {
  // Sources 1, 63, 64, 65 and 127 pixels wide, down and up; 127 -> 100
  // pulls its last group's window back to end at the row's last pixel, on
  // every row including the image's last, whose end is the buffer's end.
  // Then a 1920-wide source either side of the span limit.
  const detail::ResizeBody& body = *GetParam().body;
  std::uint32_t seed = 3;
  for (const int w : {1, 63, 64, 65, 127}) {
    for (const int h : {1, 5}) {
      const ImageU8 src = noise_image(w, h, seed++);
      for (const int out_w : {1, 17, 50, 100, 2 * w + 3})
        for (const int out_h : {1, 3, 2 * h + 1})
          expect_body_matches_inline(body, src, {out_w, out_h});
    }
  }
  const ImageU8 wide = noise_image(1920, 12, seed);
  const auto [windowed, fallback] = span_limit_widths();
  expect_body_matches_inline(body, wide, {windowed, 3});
  expect_body_matches_inline(body, wide, {fallback, 3});
}

TEST_P(ResizeBodies, MatchInlineOnEveryPyramidLevel) {
  // Every 1.25^k level of the pinned 1920x1080 dark and 640x360 day frames
  // down to 8 rows; past a ~4.1x downscale the permute body's groups no
  // longer fit one window and the gathers take over.
  const ImageU8 frames[] = {
      rgb_to_gray(test_support::pinned_dark_frame_1080()),
      rgb_to_gray(test_support::pinned_day_frame())};
  for (const ImageU8& frame : frames) {
    double scale = 1.25;
    for (; frame.height() / scale >= 8; scale *= 1.25)
      expect_body_matches_inline(
          *GetParam().body, frame,
          {static_cast<int>(std::lround(frame.width() / scale)),
           static_cast<int>(std::lround(frame.height() / scale))});
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryIsa, ResizeBodies,
    ::testing::Values(ResizeCase{"Sse2", false, false, &detail::kResizeSse2},
                      ResizeCase{"Avx2", true, false, &detail::kResizeAvx2},
                      ResizeCase{"Avx512", false, true,
                                 &detail::kResizeAvx512}),
    [](const ::testing::TestParamInfo<ResizeCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace avd::img
