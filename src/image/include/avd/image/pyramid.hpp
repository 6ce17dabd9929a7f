// Image scale pyramid: every level resized from the base image and held at
// once. Only tests build one. The multi-scale scanner plans its own levels
// (plan_pyramid in src/detect: the same level sizes and scale_step rules)
// and resizes each level from the frame inside that level's task, freeing
// it once its cell grid exists.
#pragma once

#include <vector>

#include "avd/image/image.hpp"

namespace avd::img {

struct PyramidParams {
  double scale_step = 1.25;  ///< ratio between consecutive levels (> 1)
  int max_levels = 6;
  Size min_size{16, 16};     ///< stop before a level falls below this
};

struct PyramidLevel {
  ImageU8 image;
  double scale = 1.0;  ///< original = level * scale
};

class Pyramid {
 public:
  Pyramid() = default;
  /// Build by repeated bilinear resampling of `base`. Level 0 shares the
  /// base image unscaled. Throws std::invalid_argument for an empty base, a
  /// scale_step not above 1 (NaN included) or max_levels < 1.
  Pyramid(const ImageU8& base, const PyramidParams& params = {});

  [[nodiscard]] std::size_t levels() const { return levels_.size(); }
  [[nodiscard]] const PyramidLevel& level(std::size_t i) const {
    return levels_.at(i);
  }
  [[nodiscard]] auto begin() const { return levels_.begin(); }
  [[nodiscard]] auto end() const { return levels_.end(); }

  /// Map a rectangle in level `i` coordinates back to base coordinates.
  [[nodiscard]] Rect to_base(std::size_t i, const Rect& r) const;

 private:
  std::vector<PyramidLevel> levels_;
};

}  // namespace avd::img
