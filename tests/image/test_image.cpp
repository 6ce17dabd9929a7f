#include "avd/image/image.hpp"

#include <gtest/gtest.h>

namespace avd::img {
namespace {

TEST(Image, DefaultConstructedIsEmpty) {
  ImageU8 img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.width(), 0);
  EXPECT_EQ(img.height(), 0);
  EXPECT_EQ(img.pixel_count(), 0u);
}

TEST(Image, ConstructWithFill) {
  ImageU8 img(4, 3, 7);
  EXPECT_EQ(img.size(), (Size{4, 3}));
  for (auto v : img.pixels()) EXPECT_EQ(v, 7);
}

TEST(Image, NegativeDimensionsThrow) {
  EXPECT_THROW(ImageU8(-1, 5), std::invalid_argument);
  EXPECT_THROW(ImageU8(5, -1), std::invalid_argument);
}

TEST(Image, RowMajorAddressing) {
  ImageU8 img(3, 2);
  img(0, 0) = 1;
  img(2, 0) = 2;
  img(0, 1) = 3;
  auto px = img.pixels();
  EXPECT_EQ(px[0], 1);
  EXPECT_EQ(px[2], 2);
  EXPECT_EQ(px[3], 3);
}

TEST(Image, AtThrowsOutOfRange) {
  ImageU8 img(3, 3);
  EXPECT_NO_THROW(static_cast<void>(img.at(2, 2)));
  EXPECT_THROW(static_cast<void>(img.at(3, 0)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(img.at(0, 3)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(img.at(-1, 0)), std::out_of_range);
}

TEST(Image, AtClampedBorderBehaviour) {
  ImageU8 img(2, 2);
  img(0, 0) = 10;
  img(1, 0) = 20;
  img(0, 1) = 30;
  img(1, 1) = 40;
  EXPECT_EQ(img.at_clamped(-5, -5), 10);
  EXPECT_EQ(img.at_clamped(9, 0), 20);
  EXPECT_EQ(img.at_clamped(0, 9), 30);
  EXPECT_EQ(img.at_clamped(9, 9), 40);
}

TEST(Image, RowSpan) {
  ImageU8 img(4, 2, 0);
  auto row = img.row(1);
  ASSERT_EQ(row.size(), 4u);
  row[2] = 99;
  EXPECT_EQ(img(2, 1), 99);
}

TEST(Image, FillOverwritesEverything) {
  ImageU8 img(5, 5, 1);
  img.fill(200);
  for (auto v : img.pixels()) EXPECT_EQ(v, 200);
}

TEST(Image, CropInterior) {
  ImageU8 img(10, 10);
  for (int y = 0; y < 10; ++y)
    for (int x = 0; x < 10; ++x) img(x, y) = static_cast<std::uint8_t>(10 * y + x);
  const ImageU8 c = img.crop({2, 3, 4, 5});
  EXPECT_EQ(c.size(), (Size{4, 5}));
  EXPECT_EQ(c(0, 0), 32);
  EXPECT_EQ(c(3, 4), 75);
}

TEST(Image, CropClipsToBounds) {
  ImageU8 img(5, 5, 9);
  const ImageU8 c = img.crop({3, 3, 10, 10});
  EXPECT_EQ(c.size(), (Size{2, 2}));
}

TEST(Image, CropFullyOutsideIsEmpty) {
  ImageU8 img(5, 5);
  EXPECT_TRUE(img.crop({10, 10, 3, 3}).empty());
}

TEST(Image, PasteClipsAtBorders) {
  ImageU8 dst(6, 6, 0);
  ImageU8 patch(3, 3, 255);
  dst.paste(patch, {4, 4});  // only 2x2 fits
  EXPECT_EQ(dst(4, 4), 255);
  EXPECT_EQ(dst(5, 5), 255);
  EXPECT_EQ(dst(3, 3), 0);
  dst.paste(patch, {-2, -2});  // only bottom-right 1x1 of patch lands at (0,0)
  EXPECT_EQ(dst(0, 0), 255);
  EXPECT_EQ(dst(1, 1), 0);
}

TEST(Image, EqualityComparesContent) {
  ImageU8 a(2, 2, 5);
  ImageU8 b(2, 2, 5);
  EXPECT_EQ(a, b);
  b(1, 1) = 6;
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == ImageU8(2, 3, 5));
}

TEST(ImageF32, FloatInstantiation) {
  ImageF32 img(3, 3, 1.5f);
  EXPECT_FLOAT_EQ(img(1, 1), 1.5f);
  img(1, 1) = -2.25f;
  EXPECT_FLOAT_EQ(img.at_clamped(1, 1), -2.25f);
}

TEST(RgbImage, PlanesShareGeometry) {
  RgbImage rgb(7, 5);
  EXPECT_EQ(rgb.size(), (Size{7, 5}));
  EXPECT_EQ(rgb.r().size(), rgb.b().size());
}

TEST(RgbImage, MismatchedPlanesThrow) {
  EXPECT_THROW(RgbImage(ImageU8(2, 2), ImageU8(2, 2), ImageU8(3, 2)),
               std::invalid_argument);
}

TEST(RgbImage, PixelRoundTrip) {
  RgbImage rgb(4, 4);
  rgb.set_pixel(2, 3, {10, 20, 30});
  EXPECT_EQ(rgb.pixel(2, 3), (RgbPixel{10, 20, 30}));
}

TEST(RgbImage, SetPixelClippedIgnoresOutside) {
  RgbImage rgb(2, 2);
  rgb.set_pixel_clipped(5, 5, {1, 2, 3});  // must not crash
  rgb.set_pixel_clipped(1, 1, {1, 2, 3});
  EXPECT_EQ(rgb.pixel(1, 1), (RgbPixel{1, 2, 3}));
}

TEST(RgbImage, FillAndCrop) {
  RgbImage rgb(6, 6);
  rgb.fill({9, 8, 7});
  const RgbImage c = rgb.crop({1, 1, 2, 2});
  EXPECT_EQ(c.size(), (Size{2, 2}));
  EXPECT_EQ(c.pixel(0, 0), (RgbPixel{9, 8, 7}));
}

}  // namespace
}  // namespace avd::img
