#include "avd/image/color.hpp"

#include <cstddef>

#include "rounding.hpp"

namespace avd::img {
namespace {

using detail::round_to_u8;

// The BT.601 expressions, shared by the scalar conversions and the plane
// loops so both run the same float operations in the same order. The plane
// loops walk raw pointers over whole planes (rows are contiguous), one
// output plane per loop, so each vectorises.
inline float luma_f(int r, int g, int b) {
  return 0.299f * r + 0.587f * g + 0.114f * b;
}
inline float cb_f(int r, int g, int b) {
  return 128.0f - 0.168736f * r - 0.331264f * g + 0.5f * b;
}
inline float cr_f(int r, int g, int b) {
  return 128.0f + 0.5f * r - 0.418688f * g - 0.081312f * b;
}

template <float (*Channel)(int, int, int)>
void convert_plane(const RgbImage& rgb, ImageU8& out) {
  const std::uint8_t* r = rgb.r().pixels().data();
  const std::uint8_t* g = rgb.g().pixels().data();
  const std::uint8_t* b = rgb.b().pixels().data();
  std::uint8_t* o = out.pixels().data();
  const std::size_t n = out.pixel_count();
  for (std::size_t i = 0; i < n; ++i)
    o[i] = round_to_u8(Channel(r[i], g[i], b[i]));
}

}  // namespace

std::uint8_t luma_of(std::uint8_t r, std::uint8_t g, std::uint8_t b) {
  return round_to_u8(luma_f(r, g, b));
}

std::uint8_t cb_of(std::uint8_t r, std::uint8_t g, std::uint8_t b) {
  return round_to_u8(cb_f(r, g, b));
}

std::uint8_t cr_of(std::uint8_t r, std::uint8_t g, std::uint8_t b) {
  return round_to_u8(cr_f(r, g, b));
}

YcbcrImage rgb_to_ycbcr(const RgbImage& rgb) {
  YcbcrImage out{ImageU8(rgb.size()), ImageU8(rgb.size()), ImageU8(rgb.size())};
  convert_plane<luma_f>(rgb, out.y);
  convert_plane<cb_f>(rgb, out.cb);
  convert_plane<cr_f>(rgb, out.cr);
  return out;
}

RgbImage ycbcr_to_rgb(const YcbcrImage& ycc) {
  RgbImage out(ycc.size());
  for (int yy = 0; yy < ycc.height(); ++yy) {
    auto iy = ycc.y.row(yy);
    auto icb = ycc.cb.row(yy);
    auto icr = ycc.cr.row(yy);
    auto r = out.r().row(yy);
    auto g = out.g().row(yy);
    auto b = out.b().row(yy);
    for (int x = 0; x < ycc.width(); ++x) {
      const float y = iy[x];
      const float cb = static_cast<float>(icb[x]) - 128.0f;
      const float cr = static_cast<float>(icr[x]) - 128.0f;
      r[x] = round_to_u8(y + 1.402f * cr);
      g[x] = round_to_u8(y - 0.344136f * cb - 0.714136f * cr);
      b[x] = round_to_u8(y + 1.772f * cb);
    }
  }
  return out;
}

ImageU8 rgb_to_gray(const RgbImage& rgb) {
  ImageU8 out(rgb.size());
  convert_plane<luma_f>(rgb, out);
  return out;
}

RgbImage gray_to_rgb(const ImageU8& gray) {
  return {gray, gray, gray};
}

}  // namespace avd::img
