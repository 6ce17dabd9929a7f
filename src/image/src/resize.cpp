#include "avd/image/resize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "rounding.hpp"

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

ImageU8 resize_bilinear(const ImageU8& src, Size out_size) {
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
  // instead of once per pixel.
  std::vector<std::size_t> x0c(static_cast<std::size_t>(out_size.width));
  std::vector<std::size_t> x1c(static_cast<std::size_t>(out_size.width));
  std::vector<float> wxs(static_cast<std::size_t>(out_size.width));
  for (int ox = 0; ox < out_size.width; ++ox) {
    const float fx = mx(ox);
    const int x0 = static_cast<int>(std::floor(fx));
    x0c[static_cast<std::size_t>(ox)] =
        static_cast<std::size_t>(std::clamp(x0, 0, src.width() - 1));
    x1c[static_cast<std::size_t>(ox)] =
        static_cast<std::size_t>(std::clamp(x0 + 1, 0, src.width() - 1));
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
  const std::size_t w = static_cast<std::size_t>(out_size.width);
  std::vector<float> lerped[2] = {std::vector<float>(w), std::vector<float>(w)};
  int lerped_row[2] = {-1, -1};
  // A source row widened to float once, in a loop that vectorises, rather
  // than twice per output pixel.
  std::vector<float> src_row(static_cast<std::size_t>(src.width()));
  // Slot holding source row sy's lerps, computed into the slot other than
  // `keep` on a miss.
  const auto lerp_row = [&](int sy, int keep) {
    for (int s = 0; s < 2; ++s)
      if (lerped_row[s] == sy) return s;
    const int s = keep == 0 ? 1 : 0;
    const std::uint8_t* row = src.row(sy).data();
    for (std::size_t x = 0; x < src_row.size(); ++x) src_row[x] = row[x];
    float* h = lerped[s].data();
    for (std::size_t ox = 0; ox < w; ++ox) {
      const float p0 = src_row[x0c[ox]];
      const float p1 = src_row[x1c[ox]];
      h[ox] = p0 + (p1 - p0) * wxs[ox];
    }
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
    const float* top = lerped[top_slot].data();
    const float* bot = lerped[bot_slot].data();
    std::uint8_t* orow = out.row(oy).data();
    for (std::size_t ox = 0; ox < w; ++ox)
      orow[ox] = static_cast<std::uint8_t>(
          detail::round_half_away(top[ox] + (bot[ox] - top[ox]) * wy));
  }
  return out;
}

RgbImage resize_bilinear(const RgbImage& src, Size out_size) {
  return {resize_bilinear(src.r(), out_size), resize_bilinear(src.g(), out_size),
          resize_bilinear(src.b(), out_size)};
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
  const LinearMap mx{static_cast<float>(src.width()) / out_size.width};
  const LinearMap my{static_cast<float>(src.height()) / out_size.height};
  for (int oy = 0; oy < out_size.height; ++oy) {
    const int sy = std::clamp(
        static_cast<int>(std::floor(my(oy) + 0.5f)), 0, src.height() - 1);
    auto srow = src.row(sy);
    auto orow = out.row(oy);
    for (int ox = 0; ox < out_size.width; ++ox) {
      const int sx = std::clamp(
          static_cast<int>(std::floor(mx(ox) + 0.5f)), 0, src.width() - 1);
      orow[ox] = srow[sx];
    }
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
