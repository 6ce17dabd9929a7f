#include "avd/image/color.hpp"

#include "avd/cpu.hpp"
#include "bt601.hpp"
#include "pixel_kernels.hpp"
#include "rounding.hpp"

namespace avd::img {
namespace {

using detail::cb_f;
using detail::cr_f;
using detail::luma_f;
using detail::round_to_u8;

// One output plane per call, over raw plane pointers (rows are contiguous),
// through the SSE2 or AVX2 body picked once per process.
template <float (*Channel)(int, int, int)>
void convert_plane(const RgbImage& rgb, ImageU8& out) {
  static const auto body = cpu_has_avx2() ? detail::plane_avx2<Channel>
                                          : detail::plane_sse2<Channel>;
  body(rgb.r().pixels().data(), rgb.g().pixels().data(),
       rgb.b().pixels().data(), out.pixels().data(), out.pixel_count());
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
