#include "avd/image/pyramid.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace avd::img {
namespace {

ImageU8 gradient(int w, int h) {
  ImageU8 im(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      im(x, y) = static_cast<std::uint8_t>((x + y) % 256);
  return im;
}

TEST(Pyramid, LevelZeroIsBase) {
  const ImageU8 base = gradient(128, 64);
  const Pyramid pyr(base);
  ASSERT_GE(pyr.levels(), 1u);
  EXPECT_EQ(pyr.level(0).image, base);
  EXPECT_DOUBLE_EQ(pyr.level(0).scale, 1.0);
}

TEST(Pyramid, ScalesFollowStep) {
  const Pyramid pyr(gradient(256, 256), {1.5, 4, {16, 16}});
  ASSERT_EQ(pyr.levels(), 4u);
  for (std::size_t i = 0; i < pyr.levels(); ++i)
    EXPECT_NEAR(pyr.level(i).scale, std::pow(1.5, static_cast<double>(i)),
                1e-12);
}

TEST(Pyramid, LevelDimensionsShrink) {
  const Pyramid pyr(gradient(200, 100), {1.25, 8, {16, 16}});
  for (std::size_t i = 1; i < pyr.levels(); ++i) {
    EXPECT_LT(pyr.level(i).image.width(), pyr.level(i - 1).image.width());
    EXPECT_LT(pyr.level(i).image.height(), pyr.level(i - 1).image.height());
  }
}

TEST(Pyramid, StopsAtMinSize) {
  const Pyramid pyr(gradient(64, 64), {2.0, 10, {20, 20}});
  for (const PyramidLevel& level : pyr) {
    EXPECT_GE(level.image.width(), 20);
    EXPECT_GE(level.image.height(), 20);
  }
  EXPECT_LT(pyr.levels(), 10u);  // terminated early
}

TEST(Pyramid, MaxLevelsRespected) {
  const Pyramid pyr(gradient(4096, 4096), {1.1, 3, {16, 16}});
  EXPECT_EQ(pyr.levels(), 3u);
}

TEST(Pyramid, ToBaseMapsCoordinates) {
  const Pyramid pyr(gradient(200, 200), {2.0, 3, {16, 16}});
  ASSERT_GE(pyr.levels(), 2u);
  const Rect level1_box{10, 20, 30, 40};
  const Rect base_box = pyr.to_base(1, level1_box);
  EXPECT_EQ(base_box, (Rect{20, 40, 60, 80}));
  EXPECT_EQ(pyr.to_base(0, level1_box), level1_box);
}

TEST(Pyramid, InvalidParamsThrow) {
  EXPECT_THROW(Pyramid(ImageU8(), {}), std::invalid_argument);
  EXPECT_THROW(Pyramid(gradient(8, 8), {1.0, 3, {4, 4}}),
               std::invalid_argument);
  EXPECT_THROW(Pyramid(gradient(8, 8), {1.5, 0, {4, 4}}),
               std::invalid_argument);
  // NaN compares false with everything, so a `<= 1` check let it through:
  // one silent level, or a misleading resize error with no minimum size.
  const double nan = std::nan("");
  EXPECT_THROW(Pyramid(gradient(64, 64), {nan, 3, {16, 16}}),
               std::invalid_argument);
  EXPECT_THROW(Pyramid(gradient(64, 64), {nan, 3, {0, 0}}),
               std::invalid_argument);
}

TEST(Pyramid, RangeForIteration) {
  const Pyramid pyr(gradient(64, 64), {1.5, 3, {8, 8}});
  std::size_t count = 0;
  for (const PyramidLevel& level : pyr) {
    EXPECT_FALSE(level.image.empty());
    ++count;
  }
  EXPECT_EQ(count, pyr.levels());
}

}  // namespace
}  // namespace avd::img
