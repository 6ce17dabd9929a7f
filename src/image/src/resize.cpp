#include "avd/image/resize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
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

ImageU8 detail::resize_bilinear(const ImageU8& src, Size out_size,
                                const ResizeBody& body) {
  check_out_size(out_size);
  if (src.empty()) throw std::invalid_argument("resize: empty source");
  if (src.size() == out_size) return src;

  ImageU8 out(out_size);
  const LinearMap mx{static_cast<float>(src.width()) / out_size.width};
  const LinearMap my{static_cast<float>(src.height()) / out_size.height};

  // The x mapping is identical for every row: hoist the per-column source
  // indices (with at_clamped's border clamp baked in) and lerp weights out
  // of the pixel loop. Same per-pixel arithmetic as computing them inline —
  // output bytes are unchanged, the map is just computed once per column
  // instead of once per pixel. The maps are int32, the gathers' index type,
  // padded to whole registers of lanes with index 0 and weight 0, so a
  // padding lane reads pixel 0, inside the row, and its lerp is never
  // stored to the output.
  const std::size_t w = static_cast<std::size_t>(out_size.width);
  const std::size_t padded =
      (w + kResizeLanes - 1) / kResizeLanes * kResizeLanes;
  std::vector<std::int32_t> x0c(padded, 0);
  std::vector<std::int32_t> x1c(padded, 0);
  std::vector<float> wxs(padded, 0.0f);
  for (int ox = 0; ox < out_size.width; ++ox) {
    const float fx = mx(ox);
    const int x0 = static_cast<int>(std::floor(fx));
    x0c[static_cast<std::size_t>(ox)] = std::clamp(x0, 0, src.width() - 1);
    x1c[static_cast<std::size_t>(ox)] = std::clamp(x0 + 1, 0, src.width() - 1);
    wxs[static_cast<std::size_t>(ox)] = fx - static_cast<float>(x0);
  }

  // Each output pixel is top + (bot - top) * wy, where top and bot are the
  // horizontal lerps of source rows y0 and y0 + 1 at its column. Those lerps
  // depend on the source row alone, so each row's are computed once into a
  // two-slot cache. Below a 2x downscale consecutive output rows share source
  // rows (at the pyramid's 1.25x and 1.56x steps 37.5% and 22% of row lookups
  // hit; past 2x none do). Even without hits, a horizontal pass per source
  // row and a vertical pass per output row run faster than four gathers per
  // pixel. The float operations per pixel are the ones an inline computation
  // runs, in the same order.
  std::vector<float> lerped[2] = {std::vector<float>(padded),
                                  std::vector<float>(padded)};
  int lerped_row[2] = {-1, -1};
  // A source row widened to float once, rather than twice per output pixel.
  std::vector<float> wide(static_cast<std::size_t>(src.width()));
  // Slot holding source row sy's lerps, computed into the slot other than
  // `keep` on a miss.
  const auto lerp_row = [&](int sy, int keep) {
    for (int s = 0; s < 2; ++s)
      if (lerped_row[s] == sy) return s;
    const int s = keep == 0 ? 1 : 0;
    body.lerp_source_row(src.row(sy).data(), wide.size(), wide.data(),
                         x0c.data(), x1c.data(), wxs.data(), padded,
                         lerped[s].data());
    lerped_row[s] = sy;
    return s;
  };

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
      cpu_has_avx2() ? detail::kResizeAvx2 : detail::kResizeSse2;
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
