#include "avd/image/filter.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "rounding.hpp"

namespace avd::img {

ImageU8 median3x3(const ImageU8& src) {
  ImageU8 out(src.size());
  std::array<std::uint8_t, 9> window;
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      int k = 0;
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx)
          window[static_cast<std::size_t>(k++)] =
              src.at_clamped(x + dx, y + dy);
      std::nth_element(window.begin(), window.begin() + 4, window.end());
      out(x, y) = window[4];
    }
  }
  return out;
}

ImageU8 gaussian_blur(const ImageU8& src, double sigma) {
  if (sigma <= 0.0 || src.empty()) return src;
  const int radius = static_cast<int>(std::ceil(3.0 * sigma));
  std::vector<float> kernel(static_cast<std::size_t>(2 * radius + 1));
  float sum = 0.0f;
  for (int i = -radius; i <= radius; ++i) {
    const auto w = static_cast<float>(
        std::exp(-0.5 * (static_cast<double>(i) * i) / (sigma * sigma)));
    kernel[static_cast<std::size_t>(i + radius)] = w;
    sum += w;
  }
  for (float& w : kernel) w /= sum;

  // Horizontal pass into a float buffer, then vertical pass back to u8.
  ImageF32 tmp(src.size());
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      float acc = 0.0f;
      for (int i = -radius; i <= radius; ++i)
        acc += kernel[static_cast<std::size_t>(i + radius)] *
               static_cast<float>(src.at_clamped(x + i, y));
      tmp(x, y) = acc;
    }
  }
  ImageU8 out(src.size());
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      float acc = 0.0f;
      for (int i = -radius; i <= radius; ++i)
        acc += kernel[static_cast<std::size_t>(i + radius)] *
               tmp.at_clamped(x, y + i);
      out(x, y) = detail::round_to_u8(acc);
    }
  }
  return out;
}

}  // namespace avd::img
