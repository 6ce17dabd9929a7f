// The per-pixel loops of the grey/YCbCr conversions and of resize_bilinear,
// one body per ISA (private to src/image; tests/image/test_pixel_kernels.cpp
// runs each body directly, so both are checked in one binary whatever the
// host picks).
//
// Each loop is written once and compiled twice: for the x86-64 baseline
// (SSE2) and, under __attribute__((target("avx2"))), for AVX2. Both bodies
// run the same float operations per pixel in the same order; the AVX2 one
// holds twice the pixels per register, and its horizontal lerp loads its
// source pixels with gathers, which only replace one load per lane. The
// kernels build with -ffp-contract=off and the AVX2 target leaves FMA out,
// so no multiply fuses with an add (scripts/check_no_fma.sh fails on any
// vfmadd in an AVX2 body). avd::cpu_has_avx2() picks the body once per
// process.
#pragma once

#include <cstddef>
#include <cstdint>

#include "avd/image/image.hpp"

namespace avd::img::detail {

/// o[i] = round_to_u8(Channel(r[i], g[i], b[i])) for i < n: one BT.601
/// plane. Instantiated for luma_f, cb_f and cr_f.
template <float (*Channel)(int, int, int)>
void plane_sse2(const std::uint8_t* r, const std::uint8_t* g,
                const std::uint8_t* b, std::uint8_t* o, std::size_t n);
template <float (*Channel)(int, int, int)>
__attribute__((target("avx2"))) void plane_avx2(const std::uint8_t* r,
                                                const std::uint8_t* g,
                                                const std::uint8_t* b,
                                                std::uint8_t* o,
                                                std::size_t n);

/// The two row passes of resize_bilinear, for one ISA.
struct ResizeBody {
  /// Widens source row `row` (`src_w` pixels) to floats in `wide`, then
  /// h[ox] = p0 + (p1 - p0) * wx[ox] with p0 = wide[x0[ox]] and
  /// p1 = wide[x1[ox]], for ox < n. `n` is a multiple of kResizeLanes and
  /// every index lies in [0, src_w).
  void (*lerp_source_row)(const std::uint8_t* row, std::size_t src_w,
                          float* wide, const std::int32_t* x0,
                          const std::int32_t* x1, const float* wx,
                          std::size_t n, float* h);
  /// o[ox] = round_half_away(top[ox] + (bot[ox] - top[ox]) * wy) for
  /// ox < n.
  void (*lerp_output_row)(const float* top, const float* bot, float wy,
                          std::size_t n, std::uint8_t* o);
};

/// The widest body's lanes: column maps are padded to a multiple of this.
inline constexpr std::size_t kResizeLanes = 8;

extern const ResizeBody kResizeSse2;
/// Runs only where avd::cpu_has_avx2() holds.
extern const ResizeBody kResizeAvx2;

/// resize_bilinear with its row passes run by `body`.
[[nodiscard]] ImageU8 resize_bilinear(const ImageU8& src, Size out_size,
                                      const ResizeBody& body);

}  // namespace avd::img::detail
