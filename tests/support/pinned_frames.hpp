// Fixed rendered frames and FNV-1a checksums for the pixel-kernel pins.
//
// The pin tests (tests/image/test_kernel_pins.cpp,
// tests/hog/test_cell_grid_pins.cpp, tests/detect/test_dark_pins.cpp and the
// detection-hash pins) hash what the front-end kernels and detectors make of
// these frames and compare against literals captured before the kernels were
// last rewritten. A kernel change that moves a single output byte or
// histogram float bit fails them. Rendering is built from IEEE basic
// operations only (sensor noise included), so the frames are the same on
// every host.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "avd/datasets/scene.hpp"
#include "avd/detect/detection.hpp"
#include "avd/image/image.hpp"
#include "avd/image/pyramid.hpp"

namespace avd::test_support {

/// 64-bit FNV-1a, folded over successive calls.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;

  Fnv1a& bytes(std::span<const std::uint8_t> data) {
    for (const std::uint8_t b : data) h = (h ^ b) * 1099511628211ULL;
    return *this;
  }
  /// Hashes the IEEE bit patterns, so -0.0f and +0.0f differ.
  Fnv1a& floats(std::span<const float> data) {
    for (const float f : data) {
      std::uint32_t bits;
      std::memcpy(&bits, &f, sizeof bits);
      for (int i = 0; i < 4; ++i)
        h = (h ^ ((bits >> (8 * i)) & 0xffU)) * 1099511628211ULL;
    }
    return *this;
  }
};

inline std::uint64_t checksum(const img::ImageU8& image) {
  return Fnv1a{}.bytes(image.pixels()).h;
}

/// FNV-1a over every detection's box, score bits and class, in output order.
inline std::uint64_t detection_hash(const std::vector<det::Detection>& dets) {
  Fnv1a h;
  for (const det::Detection& d : dets) {
    const std::int32_t ints[] = {d.box.x, d.box.y, d.box.width, d.box.height,
                                 d.class_id};
    std::uint8_t bytes[sizeof ints + sizeof d.score];
    std::memcpy(bytes, ints, sizeof ints);
    std::memcpy(bytes + sizeof ints, &d.score, sizeof d.score);
    h.bytes(bytes);
  }
  return h.h;
}

/// One 640x360 day frame: 2 vehicles, 1 pedestrian.
inline img::RgbImage pinned_day_frame() {
  data::SceneGenerator gen(data::LightingCondition::Day, 1301);
  return data::render_scene(gen.random_scene({640, 360}, 2, 1));
}

/// One 640x360 dark frame: 2 vehicles with lit taillights.
inline img::RgbImage pinned_dark_frame() {
  data::SceneGenerator gen(data::LightingCondition::Dark, 1302);
  return data::render_scene(gen.random_scene({640, 360}, 2, 0));
}

/// One 1920x1080 dark frame: 3 vehicles with lit taillights. Divides by the
/// dark detector's downsample factor, unlike the 640x360 frames.
inline img::RgbImage pinned_dark_frame_1080() {
  data::SceneGenerator gen(data::LightingCondition::Dark, 1304);
  return data::render_scene(gen.random_scene({1920, 1080}, 3, 0));
}

/// Sizes of the default 6-level pyramid of a frame, level 0 included.
inline std::vector<img::Size> pyramid_sizes(const img::ImageU8& base) {
  std::vector<img::Size> sizes;
  for (const img::PyramidLevel& level : img::Pyramid(base))
    sizes.push_back(level.image.size());
  return sizes;
}

}  // namespace avd::test_support
