// Binary thresholding and mask logic.
//
// Paper Fig. 4: the dark pipeline thresholds the luminance channel (bright
// light sources) AND the chrominance channel (red hue of taillights), then
// merges the two binary selections.
#pragma once

#include <cstdint>

#include "avd/image/color.hpp"
#include "avd/image/image.hpp"

namespace avd::img {

/// out = (src >= threshold) ? 255 : 0.
[[nodiscard]] ImageU8 threshold_binary(const ImageU8& src, std::uint8_t threshold);

/// out = (lo <= src && src <= hi) ? 255 : 0.
[[nodiscard]] ImageU8 threshold_band(const ImageU8& src, std::uint8_t lo,
                                     std::uint8_t hi);

/// Per-pixel logical AND of two same-sized binary masks.
[[nodiscard]] ImageU8 mask_and(const ImageU8& a, const ImageU8& b);

/// Per-pixel logical OR of two same-sized binary masks.
[[nodiscard]] ImageU8 mask_or(const ImageU8& a, const ImageU8& b);

/// Per-pixel logical NOT (0 <-> 255).
[[nodiscard]] ImageU8 mask_not(const ImageU8& a);

/// Count of non-zero pixels.
[[nodiscard]] std::size_t count_nonzero(const ImageU8& mask);

/// Parameters of the taillight region-of-interest threshold (Fig. 4 front end).
struct TaillightThresholdParams {
  std::uint8_t luma_min = 90;   ///< bright light sources (red lamps: Y ~100-140)
  std::uint8_t cr_min = 150;    ///< red chroma of taillights
  std::uint8_t cb_max = 135;    ///< suppress blue-ish street lighting
};

/// Binary ROI mask of candidate taillight pixels: bright AND red.
/// Headlights/road lights are white-to-blue (Cr near/below 128) and are
/// rejected by the chroma gates.
[[nodiscard]] ImageU8 taillight_roi_mask(const YcbcrImage& ycc,
                                         const TaillightThresholdParams& p = {});

/// The dark front end in one streaming pass: byte-identical to
/// `taillight_roi_mask(rgb_to_ycbcr(rgb), p)` reduced by `factor`, with
/// `downsample_or` when both dimensions divide by `factor` and otherwise
/// with `resize_nearest` to max(1, w / factor) x max(1, h / factor).
/// Each pixel's bright AND red test runs on the unrounded BT.601 sums, and
/// no YCbCr planes or full-resolution mask are built; the nearest fallback
/// reads only the pixels it samples. factor 1 returns the full mask.
/// Throws std::invalid_argument for factor <= 0, and for an empty frame
/// that does not divide by `factor`.
[[nodiscard]] ImageU8 taillight_roi_mask(const RgbImage& rgb,
                                         const TaillightThresholdParams& p,
                                         int factor);

}  // namespace avd::img
