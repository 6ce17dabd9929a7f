// The image library's rounding primitive against std::lround, which it
// replaces in every per-pixel kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "../../src/image/src/rounding.hpp"
#include "avd/ml/rng.hpp"

namespace avd::img {
namespace {

using detail::round_half_away;
using detail::round_to_u8;

void expect_lround(float v) {
  EXPECT_EQ(round_half_away(v), std::lround(v)) << "v = " << v;
}

TEST(Rounding, HalvesAndTheirNeighboursMatchLround) {
  for (int k = -1024; k <= 1024; ++k) {
    const float half = static_cast<float>(k) + 0.5f;
    expect_lround(half);
    expect_lround(std::nextafter(half, -INFINITY));
    expect_lround(std::nextafter(half, INFINITY));
  }
}

TEST(Rounding, RandomFloatsMatchLround) {
  constexpr float kLimit = 4194304.0f;  // 2^22
  ml::Rng rng(20261017);
  for (int i = 0; i < 500000; ++i)
    expect_lround(static_cast<float>(rng.uniform(-kLimit, kLimit)));
  // Uniform draws at that range are almost all large; random bit patterns
  // below 2^22 cover every magnitude down to the denormals.
  int drawn = 0;
  while (drawn < 500000) {
    const auto bits = static_cast<std::uint32_t>(rng.engine()());
    float v;
    std::memcpy(&v, &bits, sizeof v);
    if (!(std::fabs(v) <= kLimit)) continue;  // also skips NaN
    expect_lround(v);
    ++drawn;
  }
}

TEST(Rounding, EdgeCasesWhereAddingAHalfIsWrong) {
  // 0.49999997f is the float just below 0.5: v + 0.5f rounds up to 1.0f, so
  // (int)(v + 0.5f) gives 1 where lround gives 0.
  for (const float v : {0.0f, -0.0f, 0.49999997f, -0.49999997f, 0.5f, -0.5f,
                        1.5f, -1.5f, 8388607.5f, -8388607.5f}) {
    expect_lround(v);
  }
  EXPECT_EQ(round_half_away(0.49999997f), 0);
  EXPECT_EQ(round_half_away(-0.49999997f), 0);
}

TEST(Rounding, ToU8ClampsAfterRounding) {
  EXPECT_EQ(round_to_u8(-3.7f), 0);
  EXPECT_EQ(round_to_u8(-0.5f), 0);
  EXPECT_EQ(round_to_u8(254.49998f), 254);
  EXPECT_EQ(round_to_u8(254.5f), 255);
  EXPECT_EQ(round_to_u8(300.2f), 255);
}

}  // namespace
}  // namespace avd::img
