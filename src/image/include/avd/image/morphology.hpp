// Binary morphology with rectangular structuring elements.
//
// Paper Fig. 4: "Closing (Dilate & Erode)" removes threshold noise and closes
// small holes in taillight blobs before the sliding DBN.
#pragma once

#include "avd/image/image.hpp"

namespace avd::img {

/// Rectangular structuring element of odd dimensions centred on the origin.
struct StructuringElement {
  int width = 3;
  int height = 3;

  [[nodiscard]] int radius_x() const { return width / 2; }
  [[nodiscard]] int radius_y() const { return height / 2; }
  /// Both dimensions positive and odd; the operations below throw otherwise.
  [[nodiscard]] bool valid() const {
    return width > 0 && height > 0 && width % 2 == 1 && height % 2 == 1;
  }
};

/// Binary dilation: output pixel set if any input pixel under the SE is set.
/// Pixels outside the image are treated as background (0).
[[nodiscard]] ImageU8 dilate(const ImageU8& mask, StructuringElement se = {});

/// Binary erosion: output pixel set only if every in-bounds pixel under the
/// SE is set. Pixels outside the image are treated as background, so blobs
/// touching the border erode from the border too.
[[nodiscard]] ImageU8 erode(const ImageU8& mask, StructuringElement se = {});

/// Closing = dilate then erode. Fills holes/gaps smaller than the SE.
[[nodiscard]] ImageU8 close(const ImageU8& mask, StructuringElement se = {});

/// Opening = erode then dilate. Removes specks smaller than the SE.
[[nodiscard]] ImageU8 open(const ImageU8& mask, StructuringElement se = {});

}  // namespace avd::img
