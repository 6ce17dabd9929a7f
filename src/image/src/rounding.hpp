// The image library's one float-to-integer rounding primitive (private to
// src/image; tests/image/test_rounding.cpp checks it against std::lround).
#pragma once

#include <cstdint>

namespace avd::img::detail {

/// std::lround(v) for finite |v| < 2^23: nearest integer, ties away from
/// zero. Built from a truncating conversion and one subtraction — v - t is
/// exact because t = trunc(v) and v share their leading bits (Sterbenz) —
/// so a loop of these vectorises at the x86-64 baseline instead of calling
/// libm per element. Unlike (int)(v + 0.5f) it is right at 0.49999997f,
/// where v + 0.5f rounds up to 1.
[[nodiscard]] inline std::int32_t round_half_away(float v) {
  const auto t = static_cast<std::int32_t>(v);
  const float frac = v - static_cast<float>(t);
  return t + static_cast<std::int32_t>(frac >= 0.5f) -
         static_cast<std::int32_t>(frac <= -0.5f);
}

/// round_half_away(v) clamped to [0, 255].
[[nodiscard]] inline std::uint8_t round_to_u8(float v) {
  const std::int32_t r = round_half_away(v);
  return static_cast<std::uint8_t>(r < 0 ? 0 : (r > 255 ? 255 : r));
}

}  // namespace avd::img::detail
