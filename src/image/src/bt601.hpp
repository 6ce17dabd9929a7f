// The BT.601 full-range forward sums, private to src/image. The one copy that
// rgb_to_ycbcr, rgb_to_gray, luma_of/cb_of/cr_of and the fused taillight
// mask all evaluate, so each sees the same float operations in the same
// order and rounds (or compares) the same value.
#pragma once

namespace avd::img::detail {

[[nodiscard]] inline float luma_f(int r, int g, int b) {
  return 0.299f * r + 0.587f * g + 0.114f * b;
}
[[nodiscard]] inline float cb_f(int r, int g, int b) {
  return 128.0f - 0.168736f * r - 0.331264f * g + 0.5f * b;
}
[[nodiscard]] inline float cr_f(int r, int g, int b) {
  return 128.0f + 0.5f * r - 0.418688f * g - 0.081312f * b;
}

}  // namespace avd::img::detail
