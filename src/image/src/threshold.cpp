#include "avd/image/threshold.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "avd/cpu.hpp"
#include "pixel_kernels.hpp"
#include "sampling.hpp"

namespace avd::img {
namespace {

void check_same_size(const ImageU8& a, const ImageU8& b, const char* what) {
  if (a.size() != b.size())
    throw std::invalid_argument(std::string(what) + ": size mismatch");
}

}  // namespace

ImageU8 threshold_binary(const ImageU8& src, std::uint8_t threshold) {
  ImageU8 out(src.size());
  auto s = src.pixels();
  auto o = out.pixels();
  for (std::size_t i = 0; i < s.size(); ++i) o[i] = s[i] >= threshold ? 255 : 0;
  return out;
}

ImageU8 threshold_band(const ImageU8& src, std::uint8_t lo, std::uint8_t hi) {
  if (lo > hi) throw std::invalid_argument("threshold_band: lo > hi");
  ImageU8 out(src.size());
  auto s = src.pixels();
  auto o = out.pixels();
  for (std::size_t i = 0; i < s.size(); ++i)
    o[i] = (s[i] >= lo && s[i] <= hi) ? 255 : 0;
  return out;
}

ImageU8 mask_and(const ImageU8& a, const ImageU8& b) {
  check_same_size(a, b, "mask_and");
  ImageU8 out(a.size());
  auto pa = a.pixels();
  auto pb = b.pixels();
  auto o = out.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i)
    o[i] = (pa[i] != 0 && pb[i] != 0) ? 255 : 0;
  return out;
}

ImageU8 mask_or(const ImageU8& a, const ImageU8& b) {
  check_same_size(a, b, "mask_or");
  ImageU8 out(a.size());
  auto pa = a.pixels();
  auto pb = b.pixels();
  auto o = out.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i)
    o[i] = (pa[i] != 0 || pb[i] != 0) ? 255 : 0;
  return out;
}

ImageU8 mask_not(const ImageU8& a) {
  ImageU8 out(a.size());
  auto pa = a.pixels();
  auto o = out.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) o[i] = pa[i] != 0 ? 0 : 255;
  return out;
}

std::size_t count_nonzero(const ImageU8& mask) {
  std::size_t n = 0;
  for (auto v : mask.pixels()) n += v != 0;
  return n;
}

ImageU8 taillight_roi_mask(const YcbcrImage& ycc, const TaillightThresholdParams& p) {
  ImageU8 out(ycc.size());
  for (int y = 0; y < ycc.height(); ++y) {
    auto ly = ycc.y.row(y);
    auto cb = ycc.cb.row(y);
    auto cr = ycc.cr.row(y);
    auto o = out.row(y);
    for (int x = 0; x < ycc.width(); ++x) {
      const bool bright = ly[x] >= p.luma_min;
      const bool red = cr[x] >= p.cr_min && cb[x] <= p.cb_max;
      o[x] = (bright && red) ? 255 : 0;
    }
  }
  return out;
}

ImageU8 taillight_roi_mask(const RgbImage& rgb, const TaillightThresholdParams& p,
                           int factor) {
  if (factor <= 0)
    throw std::invalid_argument("taillight_roi_mask: factor must be positive");
  const detail::SumBounds bounds(p);
  const int w = rgb.width();
  const int h = rgb.height();

  if (w % factor != 0 || h % factor != 0) {
    // Nearest fallback: evaluate only the pixels the resize would keep.
    if (rgb.empty())
      throw std::invalid_argument("taillight_roi_mask: empty frame");
    ImageU8 out(std::max(1, w / factor), std::max(1, h / factor));
    const std::vector<int> xs = detail::nearest_source_indices(w, out.width());
    const std::vector<int> ys = detail::nearest_source_indices(h, out.height());
    for (int oy = 0; oy < out.height(); ++oy) {
      const int sy = ys[static_cast<std::size_t>(oy)];
      auto r = rgb.r().row(sy);
      auto g = rgb.g().row(sy);
      auto b = rgb.b().row(sy);
      auto o = out.row(oy);
      for (int ox = 0; ox < out.width(); ++ox) {
        const int sx = xs[static_cast<std::size_t>(ox)];
        o[ox] = bounds.hit(r[sx], g[sx], b[sx]) ? 255 : 0;
      }
    }
    return out;
  }

  // OR pooling: each group of `factor` source rows is ORed into one row of
  // hits, then each run of `factor` hits becomes one output pixel.
  static const detail::MaskRowFn mask_row =
      cpu_has_avx512() ? detail::mask_row_avx512
      : cpu_has_avx2() ? detail::mask_row_avx2
                       : detail::mask_row_sse2;
  ImageU8 out(w / factor, h / factor);
  std::vector<std::uint8_t> hits(static_cast<std::size_t>(w));
  for (int oy = 0; oy < out.height(); ++oy) {
    std::fill(hits.begin(), hits.end(), std::uint8_t{0});
    for (int dy = 0; dy < factor; ++dy) {
      const int y = oy * factor + dy;
      mask_row(rgb.r().row(y).data(), rgb.g().row(y).data(),
               rgb.b().row(y).data(), bounds, hits.data(), hits.size());
    }
    auto o = out.row(oy);
    const std::uint8_t* run = hits.data();
    for (int ox = 0; ox < out.width(); ++ox, run += factor) {
      std::uint8_t any = 0;
      for (int dx = 0; dx < factor; ++dx) any |= run[dx];
      o[ox] = any != 0 ? 255 : 0;
    }
  }
  return out;
}

}  // namespace avd::img
