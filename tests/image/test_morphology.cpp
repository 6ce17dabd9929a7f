#include "avd/image/morphology.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "avd/image/threshold.hpp"

namespace avd::img {
namespace {

ImageU8 single_pixel(int w, int h, int x, int y) {
  ImageU8 img(w, h, 0);
  img(x, y) = 255;
  return img;
}

TEST(Dilate, GrowsSinglePixelToSeShape) {
  const ImageU8 out = dilate(single_pixel(7, 7, 3, 3), {3, 3});
  EXPECT_EQ(count_nonzero(out), 9u);
  for (int dy = -1; dy <= 1; ++dy)
    for (int dx = -1; dx <= 1; ++dx) EXPECT_EQ(out(3 + dx, 3 + dy), 255);
}

TEST(Dilate, RectangularSe) {
  const ImageU8 out = dilate(single_pixel(9, 9, 4, 4), {5, 1});
  EXPECT_EQ(count_nonzero(out), 5u);
  EXPECT_EQ(out(2, 4), 255);
  EXPECT_EQ(out(6, 4), 255);
  EXPECT_EQ(out(4, 3), 0);
}

TEST(Dilate, ClipsAtBorder) {
  const ImageU8 out = dilate(single_pixel(5, 5, 0, 0), {3, 3});
  EXPECT_EQ(count_nonzero(out), 4u);  // only the in-bounds quadrant
}

TEST(Erode, RemovesSinglePixel) {
  const ImageU8 out = erode(single_pixel(7, 7, 3, 3), {3, 3});
  EXPECT_EQ(count_nonzero(out), 0u);
}

TEST(Erode, ShrinksSolidBlock) {
  ImageU8 img(7, 7, 0);
  for (int y = 1; y <= 5; ++y)
    for (int x = 1; x <= 5; ++x) img(x, y) = 255;
  const ImageU8 out = erode(img, {3, 3});
  EXPECT_EQ(count_nonzero(out), 9u);  // 5x5 erodes to 3x3
  EXPECT_EQ(out(3, 3), 255);
  EXPECT_EQ(out(1, 1), 0);
}

TEST(Erode, BorderTreatedAsBackground) {
  // A full-frame mask erodes away from the borders.
  const ImageU8 out = erode(ImageU8(5, 5, 255), {3, 3});
  EXPECT_EQ(count_nonzero(out), 9u);  // interior 3x3 survives
  EXPECT_EQ(out(0, 0), 0);
}

TEST(Close, FillsSmallHole) {
  ImageU8 img(9, 9, 0);
  for (int y = 2; y <= 6; ++y)
    for (int x = 2; x <= 6; ++x) img(x, y) = 255;
  img(4, 4) = 0;  // one-pixel hole
  const ImageU8 out = close(img, {3, 3});
  EXPECT_EQ(out(4, 4), 255);
  // Closing must not shrink the blob.
  for (int y = 2; y <= 6; ++y)
    for (int x = 2; x <= 6; ++x) EXPECT_EQ(out(x, y), 255);
}

TEST(Close, BridgesNarrowGap) {
  // Two blobs one pixel apart merge under a 3x3 closing — the paper's
  // contour-smoothing rationale.
  ImageU8 img(11, 5, 0);
  for (int x = 1; x <= 4; ++x) img(x, 2) = 255;
  for (int x = 6; x <= 9; ++x) img(x, 2) = 255;
  const ImageU8 out = close(img, {3, 3});
  EXPECT_EQ(out(5, 2), 255);
}

TEST(Open, RemovesSpeckKeepsBlob) {
  ImageU8 img(11, 11, 0);
  img(1, 1) = 255;  // speck
  for (int y = 4; y <= 8; ++y)
    for (int x = 4; x <= 8; ++x) img(x, y) = 255;
  const ImageU8 out = open(img, {3, 3});
  EXPECT_EQ(out(1, 1), 0);
  EXPECT_EQ(out(6, 6), 255);
}

TEST(Morphology, EvenSeThrows) {
  EXPECT_THROW(dilate(ImageU8(3, 3), {2, 3}), std::invalid_argument);
  EXPECT_THROW(erode(ImageU8(3, 3), {3, 4}), std::invalid_argument);
  EXPECT_THROW(dilate(ImageU8(3, 3), {0, 1}), std::invalid_argument);
}

TEST(Morphology, DilateErodeDuality) {
  // dilate(m) == not(erode(not(m))) away from borders; we check on a pattern
  // kept clear of the border so the background-extension convention agrees.
  ImageU8 img(15, 15, 0);
  img(7, 7) = 255;
  img(8, 7) = 255;
  img(5, 9) = 255;
  const ImageU8 lhs = dilate(img, {3, 3});
  const ImageU8 rhs = mask_not(erode(mask_not(img), {3, 3}));
  for (int y = 2; y < 13; ++y)
    for (int x = 2; x < 13; ++x) EXPECT_EQ(lhs(x, y), rhs(x, y)) << x << ',' << y;
}

// Property: dilation is extensive, erosion anti-extensive, both idempotent
// when composed as opening/closing.
class MorphologyProperty : public ::testing::TestWithParam<int> {
 protected:
  ImageU8 pattern() const {
    ImageU8 img(16, 16, 0);
    const int seed = GetParam();
    for (int i = 0; i < 40; ++i) {
      const int x = (i * 7 + seed * 3) % 16;
      const int y = (i * 11 + seed * 5) % 16;
      img(x, y) = 255;
    }
    return img;
  }
};

TEST_P(MorphologyProperty, DilationIsExtensive) {
  const ImageU8 src = pattern();
  const ImageU8 out = dilate(src, {3, 3});
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x)
      if (src(x, y)) {
        EXPECT_EQ(out(x, y), 255);
      }
}

TEST_P(MorphologyProperty, ErosionIsAntiExtensive) {
  const ImageU8 src = pattern();
  const ImageU8 out = erode(src, {3, 3});
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x)
      if (!src(x, y)) {
        EXPECT_EQ(out(x, y), 0);
      }
}

TEST_P(MorphologyProperty, ClosingIsIdempotent) {
  const ImageU8 once = close(pattern(), {3, 3});
  EXPECT_EQ(close(once, {3, 3}), once);
}

TEST_P(MorphologyProperty, OpeningIsIdempotent) {
  const ImageU8 once = open(pattern(), {3, 3});
  EXPECT_EQ(open(once, {3, 3}), once);
}

INSTANTIATE_TEST_SUITE_P(Patterns, MorphologyProperty,
                         ::testing::Values(0, 1, 2, 3, 4));

// --- The byte-wise passes the packed morphology replaced, as its oracle ----

// Rectangular SEs are separable: a horizontal 1xW pass followed by a vertical
// Hx1 pass. `Any` selects dilation (true = any set) vs erosion (false = all set).
template <bool Any>
ImageU8 reference_horizontal_pass(const ImageU8& src, int rx) {
  ImageU8 out(src.size());
  for (int y = 0; y < src.height(); ++y) {
    auto s = src.row(y);
    auto o = out.row(y);
    for (int x = 0; x < src.width(); ++x) {
      bool hit = !Any;
      for (int dx = -rx; dx <= rx; ++dx) {
        const int xx = x + dx;
        const bool set = xx >= 0 && xx < src.width() && s[xx] != 0;
        if constexpr (Any) {
          if (set) {
            hit = true;
            break;
          }
        } else {
          if (!set) {
            hit = false;
            break;
          }
        }
      }
      o[x] = hit ? 255 : 0;
    }
  }
  return out;
}

template <bool Any>
ImageU8 reference_vertical_pass(const ImageU8& src, int ry) {
  ImageU8 out(src.size());
  for (int y = 0; y < src.height(); ++y) {
    auto o = out.row(y);
    for (int x = 0; x < src.width(); ++x) {
      bool hit = !Any;
      for (int dy = -ry; dy <= ry; ++dy) {
        const int yy = y + dy;
        const bool set = yy >= 0 && yy < src.height() && src(x, yy) != 0;
        if constexpr (Any) {
          if (set) {
            hit = true;
            break;
          }
        } else {
          if (!set) {
            hit = false;
            break;
          }
        }
      }
      o[x] = hit ? 255 : 0;
    }
  }
  return out;
}

ImageU8 reference_dilate(const ImageU8& mask, StructuringElement se) {
  return reference_vertical_pass<true>(
      reference_horizontal_pass<true>(mask, se.radius_x()), se.radius_y());
}

ImageU8 reference_erode(const ImageU8& mask, StructuringElement se) {
  return reference_vertical_pass<false>(
      reference_horizontal_pass<false>(mask, se.radius_x()), se.radius_y());
}

/// A mask with each pixel set with probability `density`, set pixels taking
/// random values in [1, 255] (any non-zero byte counts as set).
ImageU8 random_mask(int w, int h, double density, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution set(density);
  std::uniform_int_distribution<int> value(1, 255);
  ImageU8 mask(w, h);
  for (std::uint8_t& v : mask.pixels())
    v = set(rng) ? static_cast<std::uint8_t>(value(rng)) : 0;
  return mask;
}

// Packed dilate/erode/close/open against the byte-wise oracle, over random
// masks of every width class the packing cares about: one word or less, a
// word boundary on either side, several words, and the 640-wide dark mask.
class PackedMorphology : public ::testing::TestWithParam<int> {};

TEST_P(PackedMorphology, MatchesByteWiseOracle) {
  const int w = GetParam();
  const StructuringElement ses[] = {{1, 1}, {3, 3}, {5, 3}, {3, 5},
                                    {7, 1}, {1, 7}, {129, 3}};
  std::uint32_t seed = static_cast<std::uint32_t>(w) * 1000;
  for (const int h : {1, 2, 3, 360}) {
    for (const double density : {0.0, 0.05, 0.5, 1.0}) {
      const ImageU8 mask = random_mask(w, h, density, ++seed);
      for (const StructuringElement se : ses) {
        const ImageU8 dilated = reference_dilate(mask, se);
        const ImageU8 eroded = reference_erode(mask, se);
        const auto where = [&] {
          return ::testing::Message()
                 << w << "x" << h << " density " << density << " se "
                 << se.width << "x" << se.height;
        };
        ASSERT_EQ(dilate(mask, se), dilated) << where();
        ASSERT_EQ(erode(mask, se), eroded) << where();
        ASSERT_EQ(close(mask, se), reference_erode(dilated, se)) << where();
        ASSERT_EQ(open(mask, se), reference_dilate(eroded, se)) << where();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PackedMorphology,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 129,
                                           640, 641));

}  // namespace
}  // namespace avd::img
