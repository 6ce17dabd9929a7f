#include "avd/datasets/sensor_noise.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <random>

namespace avd::data {
namespace {

constexpr std::uint32_t kCells = 1u << kSensorNoiseTableBits;
// |k| >= 255 takes any stored value to 0 or 255, so larger offsets are
// folded into +-255.
constexpr int kMaxOffset = 255;
// Past 8 the normal density is below 1e-14: its mass there is ignored.
constexpr double kDensityCutoff = 8.0;

/// exp(-u) for u >= 0: halve u to at most 1/2, sum the Taylor series, then
/// square back. Basic operations only, unlike std::exp.
double exp_neg(double u) {
  int halvings = 0;
  while (u > 0.5) {
    u *= 0.5;
    ++halvings;
  }
  double term = 1.0, sum = 1.0;
  for (int n = 1; n <= 18; ++n) {
    term *= -u / n;
    sum += term;
  }
  while (halvings-- > 0) sum *= sum;
  return sum;
}

double density(double t) {
  return exp_neg(0.5 * t * t) * 0.398942280401432677940;  // 1/sqrt(2 pi)
}

/// Standard normal mass on [a, b], 0 <= a <= b: composite Simpson's rule
/// with a step h of at most 1/128. Its error, at most
/// (b - a) h^4 max|density''''| / 180, stays under 2.5e-10 on [0, 8].
double normal_mass(double a, double b) {
  b = std::min(b, kDensityCutoff);
  if (a >= b) return 0.0;
  const int n = 2 * static_cast<int>(std::ceil((b - a) * 64.0));
  const double h = (b - a) / n;
  double sum = density(a) + density(b);
  for (int i = 1; i < n; ++i)
    sum += (i % 2 == 1 ? 4.0 : 2.0) * density(a + i * h);
  return sum * h / 3.0;
}

}  // namespace

std::vector<std::int16_t> sensor_noise_table(double sigma) {
  std::vector<std::int16_t> table(kCells, 0);
  if (!(sigma > 0.0)) return table;

  // upper[k]: cells holding offsets <= k, i.e. Phi((k + 1/2) / sigma)
  // rounded to a whole cell. Offsets below zero mirror these boundaries,
  // which is what makes the table exactly symmetric.
  std::array<std::uint32_t, kMaxOffset + 1> upper{};
  double mass = 0.0;  // standard normal mass on [0, x]
  double x = 0.0;
  for (int k = 0; k < kMaxOffset; ++k) {
    const double next = (k + 0.5) / sigma;
    mass += normal_mass(x, next);
    x = next;
    const double cells = std::floor(kCells * (0.5 + mass) + 0.5);
    upper[k] = static_cast<std::uint32_t>(std::min(cells, double{kCells}));
  }
  upper[kMaxOffset] = kCells;

  std::uint32_t lo = 0;
  for (int k = -kMaxOffset; k <= kMaxOffset; ++k) {
    const std::uint32_t hi = k < 0 ? kCells - upper[-k - 1] : upper[k];
    std::fill(table.begin() + lo, table.begin() + hi,
              static_cast<std::int16_t>(k));
    lo = hi;
  }
  return table;
}

void add_sensor_noise(img::RgbImage& frame, double sigma, std::uint64_t seed) {
  if (!(sigma > 0.0)) return;
  const std::vector<std::int16_t> table = sensor_noise_table(sigma);
  std::mt19937_64 engine(seed);
  std::uint64_t word = 0;
  int lanes = 0;
  for (img::ImageU8* plane : {&frame.r(), &frame.g(), &frame.b()}) {
    for (std::uint8_t& v : plane->pixels()) {
      if (lanes == 0) {
        word = engine();
        lanes = 4;
      }
      const int k = table[word & 0xffffu];
      word >>= 16;
      --lanes;
      v = static_cast<std::uint8_t>(std::clamp(v + k, 0, 255));
    }
  }
}

}  // namespace avd::data
