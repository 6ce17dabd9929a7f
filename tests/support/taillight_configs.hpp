// The taillight threshold configurations the fused-mask tests sweep
// (tests/image/test_taillight_mask.cpp end to end,
// tests/image/test_pixel_kernels.cpp per body).
#pragma once

#include <cstdint>
#include <vector>

#include "avd/image/threshold.hpp"

namespace avd::test_support {

/// The default thresholds and the edge configs of each gate: a bound that
/// passes every byte (luma_min 0, cr_min 0, cb_max 255), the tightest
/// non-trivial ones (luma_min 1, cb_max 0 and 254) and the strictest
/// (luma_min 255, cr_min 255).
inline std::vector<img::TaillightThresholdParams> threshold_configs() {
  std::vector<img::TaillightThresholdParams> configs{{}};
  for (const int v : {0, 1, 255}) {
    img::TaillightThresholdParams p;
    p.luma_min = static_cast<std::uint8_t>(v);
    configs.push_back(p);
  }
  for (const int v : {0, 255}) {
    img::TaillightThresholdParams p;
    p.cr_min = static_cast<std::uint8_t>(v);
    configs.push_back(p);
  }
  for (const int v : {0, 254, 255}) {
    img::TaillightThresholdParams p;
    p.cb_max = static_cast<std::uint8_t>(v);
    configs.push_back(p);
  }
  return configs;
}

}  // namespace avd::test_support
