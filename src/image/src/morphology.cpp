#include "avd/image/morphology.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace avd::img {
namespace {

void check_se(StructuringElement se) {
  if (!se.valid())
    throw std::invalid_argument("morphology: SE dimensions must be positive odd");
}

// A binary mask packed 64 pixels to a word: pixel x of a row is bit x % 64 of
// the row's word x / 64. Bits past the width stay 0, so they read as the
// background that lies outside the image.
struct PackedMask {
  int width = 0;
  int height = 0;
  std::size_t words = 0;  ///< words per row
  std::vector<std::uint64_t> bits;

  explicit PackedMask(Size size)
      : width(size.width),
        height(size.height),
        words((static_cast<std::size_t>(size.width) + 63) / 64),
        bits(words * static_cast<std::size_t>(size.height)) {}

  [[nodiscard]] std::uint64_t* row(int y) {
    return bits.data() + static_cast<std::size_t>(y) * words;
  }
  [[nodiscard]] const std::uint64_t* row(int y) const {
    return bits.data() + static_cast<std::size_t>(y) * words;
  }
  /// The bits of a row's last word that lie inside the image.
  [[nodiscard]] std::uint64_t tail_mask() const {
    const int used = width % 64;
    return used == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << used) - 1;
  }
};

// Each word is built, or read, in a register, one row segment at a time.
PackedMask pack(const ImageU8& mask) {
  PackedMask packed(mask.size());
  for (int y = 0; y < mask.height(); ++y) {
    const std::uint8_t* src = mask.row(y).data();
    std::uint64_t* dst = packed.row(y);
    for (int x0 = 0; x0 < mask.width(); x0 += 64) {
      const int n = std::min(64, mask.width() - x0);
      std::uint64_t word = 0;
      for (int k = 0; k < n; ++k)
        word |= static_cast<std::uint64_t>(src[x0 + k] != 0) << k;
      dst[x0 / 64] = word;
    }
  }
  return packed;
}

ImageU8 unpack(const PackedMask& packed) {
  ImageU8 out(packed.width, packed.height);
  for (int y = 0; y < packed.height; ++y) {
    const std::uint64_t* src = packed.row(y);
    std::uint8_t* dst = out.row(y).data();
    for (int x0 = 0; x0 < packed.width; x0 += 64) {
      const int n = std::min(64, packed.width - x0);
      const std::uint64_t word = src[x0 / 64];
      for (int k = 0; k < n; ++k)
        dst[x0 + k] = ((word >> k) & 1U) != 0 ? 255 : 0;
    }
  }
  return out;
}

// Rectangular SEs are separable, and a (2r+1)-wide segment is r 3-wide
// segments in a row, so every pass is r radius-1 steps: a horizontal 1x3
// step then a vertical 3x1 step, each r times. `Any` selects dilation
// (true = any set) vs erosion (false = all set). Outside the image is
// background: zero bits shift in at the row ends, and a missing neighbour
// row reads as zero. Stepping is exact at the borders: erosion never sets an
// outside pixel, and any inside pixel a wide segment reaches from an inside
// pixel, radius-1 steps reach through pixels between the two.
template <bool Any>
std::uint64_t combine(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return Any ? (a | b | c) : (a & b & c);
}

// In place: each pixel combines itself with its left and right neighbours,
// carrying bits across words.
template <bool Any>
void horizontal_step(PackedMask& m) {
  for (int y = 0; y < m.height; ++y) {
    std::uint64_t* row = m.row(y);
    std::uint64_t prev = 0;  // the unmodified word before row[i]
    for (std::size_t i = 0; i < m.words; ++i) {
      const std::uint64_t cur = row[i];
      const std::uint64_t next = i + 1 < m.words ? row[i + 1] : 0;
      row[i] = combine<Any>(cur, (cur << 1) | (prev >> 63),
                            (cur >> 1) | (next << 63));
      prev = cur;
    }
    if (m.words > 0) row[m.words - 1] &= m.tail_mask();
  }
}

// Each pixel combines itself with the pixels above and below it.
template <bool Any>
void vertical_step(const PackedMask& src, PackedMask& dst) {
  for (int y = 0; y < src.height; ++y) {
    const std::uint64_t* row = src.row(y);
    const std::uint64_t* up = y > 0 ? src.row(y - 1) : nullptr;
    const std::uint64_t* down = y + 1 < src.height ? src.row(y + 1) : nullptr;
    std::uint64_t* out = dst.row(y);
    for (std::size_t i = 0; i < src.words; ++i)
      out[i] = combine<Any>(row[i], up != nullptr ? up[i] : 0,
                            down != nullptr ? down[i] : 0);
  }
}

// One dilation (Any) or erosion of `m` in place; `scratch` is same-sized.
template <bool Any>
void apply(PackedMask& m, StructuringElement se, PackedMask& scratch) {
  for (int r = 0; r < se.radius_x(); ++r) horizontal_step<Any>(m);
  for (int r = 0; r < se.radius_y(); ++r) {
    vertical_step<Any>(m, scratch);
    std::swap(m.bits, scratch.bits);
  }
}

// Packs once, runs each (Any, se) step in order, unpacks once.
template <bool... Any>
ImageU8 run(const ImageU8& mask, StructuringElement se) {
  check_se(se);
  PackedMask m = pack(mask);
  PackedMask scratch(mask.size());
  (apply<Any>(m, se, scratch), ...);
  return unpack(m);
}

}  // namespace

ImageU8 dilate(const ImageU8& mask, StructuringElement se) {
  return run<true>(mask, se);
}

ImageU8 erode(const ImageU8& mask, StructuringElement se) {
  return run<false>(mask, se);
}

ImageU8 close(const ImageU8& mask, StructuringElement se) {
  return run<true, false>(mask, se);
}

ImageU8 open(const ImageU8& mask, StructuringElement se) {
  return run<false, true>(mask, se);
}

}  // namespace avd::img
