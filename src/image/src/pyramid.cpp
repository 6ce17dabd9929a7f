#include "avd/image/pyramid.hpp"

#include <cmath>
#include <stdexcept>

#include "avd/image/resize.hpp"

namespace avd::img {

Pyramid::Pyramid(const ImageU8& base, const PyramidParams& params) {
  if (base.empty()) throw std::invalid_argument("Pyramid: empty base image");
  if (!(params.scale_step > 1.0))  // NaN included
    throw std::invalid_argument("Pyramid: scale_step must exceed 1");
  if (params.max_levels <= 0)
    throw std::invalid_argument("Pyramid: max_levels must be positive");

  double scale = 1.0;
  for (int i = 0; i < params.max_levels; ++i, scale *= params.scale_step) {
    const Size size{static_cast<int>(std::lround(base.width() / scale)),
                    static_cast<int>(std::lround(base.height() / scale))};
    if (size.width < params.min_size.width ||
        size.height < params.min_size.height)
      break;
    PyramidLevel level;
    level.scale = scale;
    level.image = i == 0 ? base : resize_bilinear(base, size);
    levels_.push_back(std::move(level));
  }
}

Rect Pyramid::to_base(std::size_t i, const Rect& r) const {
  const double s = levels_.at(i).scale;
  return scaled(r, s, s);
}

}  // namespace avd::img
