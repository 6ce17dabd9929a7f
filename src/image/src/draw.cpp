#include "avd/image/draw.hpp"

#include <algorithm>
#include <cstdlib>

#include "rounding.hpp"

namespace avd::img {
namespace {

std::uint8_t sat_add(std::uint8_t a, int b) {
  return static_cast<std::uint8_t>(std::clamp(static_cast<int>(a) + b, 0, 255));
}

std::uint8_t mix(std::uint8_t a, std::uint8_t b, float alpha) {
  return static_cast<std::uint8_t>(
      detail::round_half_away(static_cast<float>(a) * (1.0f - alpha) +
                              static_cast<float>(b) * alpha));
}

}  // namespace

void fill_rect(ImageU8& image, const Rect& r, std::uint8_t value) {
  const Rect c = intersect(r, image.bounds());
  for (int y = c.y; y < c.bottom(); ++y) {
    auto row = image.row(y);
    std::fill(row.begin() + c.x, row.begin() + c.right(), value);
  }
}

void fill_rect(RgbImage& image, const Rect& r, RgbPixel color) {
  fill_rect(image.r(), r, color.r);
  fill_rect(image.g(), r, color.g);
  fill_rect(image.b(), r, color.b);
}

void draw_rect(ImageU8& image, const Rect& r, std::uint8_t value, int thickness) {
  if (r.empty() || thickness <= 0) return;
  const int t = std::min({thickness, (r.width + 1) / 2, (r.height + 1) / 2});
  fill_rect(image, {r.x, r.y, r.width, t}, value);                     // top
  fill_rect(image, {r.x, r.bottom() - t, r.width, t}, value);          // bottom
  fill_rect(image, {r.x, r.y, t, r.height}, value);                    // left
  fill_rect(image, {r.right() - t, r.y, t, r.height}, value);          // right
}

void draw_rect(RgbImage& image, const Rect& r, RgbPixel color, int thickness) {
  draw_rect(image.r(), r, color.r, thickness);
  draw_rect(image.g(), r, color.g, thickness);
  draw_rect(image.b(), r, color.b, thickness);
}

void draw_line(RgbImage& image, Point a, Point b, RgbPixel color) {
  const int dx = std::abs(b.x - a.x);
  const int dy = -std::abs(b.y - a.y);
  const int sx = a.x < b.x ? 1 : -1;
  const int sy = a.y < b.y ? 1 : -1;
  int err = dx + dy;
  Point p = a;
  while (true) {
    image.set_pixel_clipped(p.x, p.y, color);
    if (p == b) break;
    const int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      p.x += sx;
    }
    if (e2 <= dx) {
      err += dx;
      p.y += sy;
    }
  }
}

void fill_ellipse(ImageU8& image, const Rect& r, std::uint8_t value) {
  if (r.empty()) return;
  const double cx = r.x + r.width / 2.0 - 0.5;
  const double cy = r.y + r.height / 2.0 - 0.5;
  const double rx = r.width / 2.0;
  const double ry = r.height / 2.0;
  const Rect c = intersect(r, image.bounds());
  for (int y = c.y; y < c.bottom(); ++y) {
    const double ny = (y - cy) / ry;
    auto row = image.row(y);
    for (int x = c.x; x < c.right(); ++x) {
      const double nx = (x - cx) / rx;
      if (nx * nx + ny * ny <= 1.0) row[x] = value;
    }
  }
}

void fill_ellipse(RgbImage& image, const Rect& r, RgbPixel color) {
  fill_ellipse(image.r(), r, color.r);
  fill_ellipse(image.g(), r, color.g);
  fill_ellipse(image.b(), r, color.b);
}

void add_glow(RgbImage& image, Point center, int radius, RgbPixel color) {
  if (radius <= 0) return;
  const Rect roi = intersect(
      {center.x - radius, center.y - radius, 2 * radius + 1, 2 * radius + 1},
      image.bounds());
  const double r2 = static_cast<double>(radius) * radius;
  for (int y = roi.y; y < roi.bottom(); ++y) {
    for (int x = roi.x; x < roi.right(); ++x) {
      const double d2 = static_cast<double>(x - center.x) * (x - center.x) +
                        static_cast<double>(y - center.y) * (y - center.y);
      if (d2 > r2) continue;
      const double w = 1.0 - d2 / r2;  // quadratic falloff
      const double w2 = w * w;
      image.r()(x, y) = sat_add(image.r()(x, y), static_cast<int>(color.r * w2));
      image.g()(x, y) = sat_add(image.g()(x, y), static_cast<int>(color.g * w2));
      image.b()(x, y) = sat_add(image.b()(x, y), static_cast<int>(color.b * w2));
    }
  }
}

namespace {

// 3x5 digit font, one row per byte (3 LSBs used).
constexpr std::uint8_t kDigitFont[10][5] = {
    {0b111, 0b101, 0b101, 0b101, 0b111},  // 0
    {0b010, 0b110, 0b010, 0b010, 0b111},  // 1
    {0b111, 0b001, 0b111, 0b100, 0b111},  // 2
    {0b111, 0b001, 0b111, 0b001, 0b111},  // 3
    {0b101, 0b101, 0b111, 0b001, 0b001},  // 4
    {0b111, 0b100, 0b111, 0b001, 0b111},  // 5
    {0b111, 0b100, 0b111, 0b101, 0b111},  // 6
    {0b111, 0b001, 0b010, 0b010, 0b010},  // 7
    {0b111, 0b101, 0b111, 0b101, 0b111},  // 8
    {0b111, 0b101, 0b111, 0b001, 0b111},  // 9
};

void draw_digit(RgbImage& image, Point top_left, int digit, RgbPixel color,
                int scale) {
  for (int row = 0; row < 5; ++row) {
    for (int col = 0; col < 3; ++col) {
      if ((kDigitFont[digit][row] >> (2 - col)) & 1) {
        fill_rect(image,
                  {top_left.x + col * scale, top_left.y + row * scale, scale,
                   scale},
                  color);
      }
    }
  }
}

}  // namespace

int draw_number(RgbImage& image, Point top_left, std::uint64_t value,
                RgbPixel color, int scale) {
  if (scale <= 0) return 0;
  char digits[21];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);

  int x = top_left.x;
  for (int i = n - 1; i >= 0; --i) {
    draw_digit(image, {x, top_left.y}, digits[i] - '0', color, scale);
    x += 4 * scale;  // 3-wide glyph + 1 column spacing
  }
  return x - top_left.x;
}

void blend_rect(RgbImage& image, const Rect& r, RgbPixel color, float alpha) {
  alpha = std::clamp(alpha, 0.0f, 1.0f);
  const Rect c = intersect(r, image.bounds());
  for (int y = c.y; y < c.bottom(); ++y) {
    auto rr = image.r().row(y);
    auto gg = image.g().row(y);
    auto bb = image.b().row(y);
    for (int x = c.x; x < c.right(); ++x) {
      rr[x] = mix(rr[x], color.r, alpha);
      gg[x] = mix(gg[x], color.g, alpha);
      bb[x] = mix(bb[x], color.b, alpha);
    }
  }
}

}  // namespace avd::img
