#include "avd/image/resize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "avd/cpu.hpp"
#include "pixel_kernels.hpp"
#include "sampling.hpp"

namespace avd::img {
namespace {

void check_out_size(Size out) {
  if (out.width <= 0 || out.height <= 0)
    throw std::invalid_argument("resize: non-positive output size");
}

// Maps output pixel centre to source coordinates (align-centres convention).
struct LinearMap {
  float scale;
  [[nodiscard]] float operator()(int out_coord) const {
    return (static_cast<float>(out_coord) + 0.5f) * scale - 0.5f;
  }
};

}  // namespace

detail::ColumnMap::ColumnMap(int src_width, int out_w)
    : src_w(static_cast<std::size_t>(src_width)),
      padded((static_cast<std::size_t>(out_w) + kResizeLanes - 1) /
             kResizeLanes * kResizeLanes),
      x0(padded, 0),
      x1(padded, 0),
      wx(padded, 0.0f) {
  // The x mapping is identical for every row: hoist the per-column source
  // indices and lerp weights out of the pixel loop. Same per-pixel
  // arithmetic as computing them inline, once per column instead of once
  // per pixel.
  const LinearMap mx{static_cast<float>(src_width) / out_w};
  for (int ox = 0; ox < out_w; ++ox) {
    const float fx = mx(ox);
    const int x = static_cast<int>(std::floor(fx));
    x0[static_cast<std::size_t>(ox)] = std::clamp(x, 0, src_width - 1);
    x1[static_cast<std::size_t>(ox)] = std::clamp(x + 1, 0, src_width - 1);
    wx[static_cast<std::size_t>(ox)] = fx - static_cast<float>(x);
  }

  // The windows. A group's base is the least pixel its real columns read
  // (padding lanes take no part), pulled back to src_w - kResizeWindow so the
  // window ends inside the row; the pull keeps every rel below the window,
  // since no index passes src_w - 1.
  constexpr auto kWindow = static_cast<std::int32_t>(kResizeWindow);
  if (src_width < kWindow) return;
  const std::size_t w = static_cast<std::size_t>(out_w);
  std::vector<std::int32_t> bases;
  bases.reserve(padded / kResizeLanes);
  for (std::size_t g = 0; g < w; g += kResizeLanes) {
    const auto first = static_cast<std::ptrdiff_t>(g);
    const auto last =
        static_cast<std::ptrdiff_t>(std::min(g + kResizeLanes, w));
    const std::int32_t lo =
        *std::min_element(x0.begin() + first, x0.begin() + last);
    const std::int32_t hi =
        *std::max_element(x1.begin() + first, x1.begin() + last);
    if (hi - lo >= kWindow) return;  // wider than one window: gathers
    bases.push_back(std::min(lo, src_width - kWindow));
  }
  rel0.assign(padded, 0);
  rel1.assign(padded, 0);
  for (std::size_t ox = 0; ox < w; ++ox) {
    rel0[ox] = x0[ox] - bases[ox / kResizeLanes];
    rel1[ox] = x1[ox] - bases[ox / kResizeLanes];
  }
  base = std::move(bases);
}

ImageU8 detail::resize_bilinear(const ImageU8& src, Size out_size,
                                const ResizeBody& body) {
  check_out_size(out_size);
  if (src.empty()) throw std::invalid_argument("resize: empty source");
  if (src.size() == out_size) return src;

  ImageU8 out(out_size);
  const ColumnMap cols(src.width(), out_size.width);
  const LinearMap my{static_cast<float>(src.height()) / out_size.height};
  const bool windows = body.lerp_source_windows != nullptr && cols.windowed();

  // Each output pixel is top + (bot - top) * wy, where top and bot are the
  // horizontal lerps of source rows y0 and y0 + 1 at its column. Those lerps
  // depend on the source row alone, so each row's are computed once into a
  // two-slot cache. Below a 2x downscale consecutive output rows share source
  // rows (at the pyramid's 1.25x and 1.56x steps 37.5% and 22% of row lookups
  // hit; past 2x none do). Even without hits, a horizontal pass per source
  // row and a vertical pass per output row run faster than four gathers per
  // pixel. The float operations per pixel are the ones an inline computation
  // runs, in the same order.
  std::vector<float> lerped[2] = {std::vector<float>(cols.padded),
                                  std::vector<float>(cols.padded)};
  int lerped_row[2] = {-1, -1};
  // The gather lerp's source row widened to float once, rather than twice
  // per output pixel; the window lerp widens in registers.
  std::vector<float> wide(windows ? 0 : cols.src_w);
  // Slot holding source row sy's lerps, computed into the slot other than
  // `keep` on a miss.
  const auto lerp_row = [&](int sy, int keep) {
    for (int s = 0; s < 2; ++s)
      if (lerped_row[s] == sy) return s;
    const int s = keep == 0 ? 1 : 0;
    if (windows)
      body.lerp_source_windows(src.row(sy).data(), cols, lerped[s].data());
    else
      body.lerp_source_row(src.row(sy).data(), cols, wide.data(),
                           lerped[s].data());
    lerped_row[s] = sy;
    return s;
  };

  const auto w = static_cast<std::size_t>(out_size.width);
  for (int oy = 0; oy < out_size.height; ++oy) {
    const float fy = my(oy);
    const int y0 = static_cast<int>(std::floor(fy));
    const float wy = fy - static_cast<float>(y0);
    const int top_slot = lerp_row(std::clamp(y0, 0, src.height() - 1), -1);
    const int bot_slot =
        lerp_row(std::clamp(y0 + 1, 0, src.height() - 1), top_slot);
    body.lerp_output_row(lerped[top_slot].data(), lerped[bot_slot].data(), wy,
                         w, out.row(oy).data());
  }
  return out;
}

ImageU8 resize_bilinear(const ImageU8& src, Size out_size) {
  static const detail::ResizeBody& body =
      cpu_has_avx512() ? detail::kResizeAvx512
      : cpu_has_avx2() ? detail::kResizeAvx2
                       : detail::kResizeSse2;
  return detail::resize_bilinear(src, out_size, body);
}

RgbImage resize_bilinear(const RgbImage& src, Size out_size) {
  return {resize_bilinear(src.r(), out_size), resize_bilinear(src.g(), out_size),
          resize_bilinear(src.b(), out_size)};
}

std::vector<int> detail::nearest_source_indices(int src_len, int out_len) {
  const LinearMap map{static_cast<float>(src_len) / out_len};
  std::vector<int> indices(static_cast<std::size_t>(out_len));
  for (int o = 0; o < out_len; ++o)
    indices[static_cast<std::size_t>(o)] = std::clamp(
        static_cast<int>(std::floor(map(o) + 0.5f)), 0, src_len - 1);
  return indices;
}

ImageU8 resize_nearest(const ImageU8& src, Size out_size) {
  check_out_size(out_size);
  if (src.empty()) throw std::invalid_argument("resize: empty source");
  ImageU8 out(out_size);
  // Same align-centres LinearMap as resize_bilinear: each output pixel takes
  // the source pixel whose centre is nearest its own mapped centre. The old
  // top-left mapping (ox * sw / ow) sampled up to half a source pixel to the
  // upper-left of bilinear, so a nearest-resized mask drifted relative to
  // the bilinear-resized frame it annotates.
  const std::vector<int> xs =
      detail::nearest_source_indices(src.width(), out_size.width);
  const std::vector<int> ys =
      detail::nearest_source_indices(src.height(), out_size.height);
  for (int oy = 0; oy < out_size.height; ++oy) {
    auto srow = src.row(ys[static_cast<std::size_t>(oy)]);
    auto orow = out.row(oy);
    for (int ox = 0; ox < out_size.width; ++ox)
      orow[ox] = srow[xs[static_cast<std::size_t>(ox)]];
  }
  return out;
}

ImageU8 downsample_box(const ImageU8& src, int factor) {
  if (factor <= 0) throw std::invalid_argument("downsample: factor must be positive");
  if (src.width() % factor != 0 || src.height() % factor != 0)
    throw std::invalid_argument("downsample: dimensions not divisible by factor");
  ImageU8 out(src.width() / factor, src.height() / factor);
  const int area = factor * factor;
  for (int oy = 0; oy < out.height(); ++oy) {
    auto orow = out.row(oy);
    for (int ox = 0; ox < out.width(); ++ox) {
      int sum = 0;
      for (int dy = 0; dy < factor; ++dy) {
        auto srow = src.row(oy * factor + dy);
        for (int dx = 0; dx < factor; ++dx) sum += srow[ox * factor + dx];
      }
      orow[ox] = static_cast<std::uint8_t>((sum + area / 2) / area);
    }
  }
  return out;
}

ImageU8 downsample_or(const ImageU8& src, int factor) {
  if (factor <= 0) throw std::invalid_argument("downsample: factor must be positive");
  if (src.width() % factor != 0 || src.height() % factor != 0)
    throw std::invalid_argument("downsample: dimensions not divisible by factor");
  ImageU8 out(src.width() / factor, src.height() / factor);
  for (int oy = 0; oy < out.height(); ++oy) {
    auto orow = out.row(oy);
    for (int ox = 0; ox < out.width(); ++ox) {
      std::uint8_t v = 0;
      for (int dy = 0; dy < factor && v == 0; ++dy) {
        auto srow = src.row(oy * factor + dy);
        for (int dx = 0; dx < factor; ++dx) {
          if (srow[ox * factor + dx] != 0) {
            v = 255;
            break;
          }
        }
      }
      orow[ox] = v;
    }
  }
  return out;
}

}  // namespace avd::img
