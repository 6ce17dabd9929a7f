#include "pixel_kernels.hpp"

// GCC 12's unmasked AVX-512 intrinsics pass _mm512_undefined_*() as their
// unused merge source, whose self-initialisation draws a false
// -Wmaybe-uninitialized wherever they inline (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include "bt601.hpp"
#include "rounding.hpp"

namespace avd::img::detail {
namespace {

// The loops every body runs. Always inlined, so each body compiles them for
// its own ISA.

template <float (*Channel)(int, int, int)>
[[gnu::always_inline]] inline void plane_loop(const std::uint8_t* r,
                                              const std::uint8_t* g,
                                              const std::uint8_t* b,
                                              std::uint8_t* o, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    o[i] = round_to_u8(Channel(r[i], g[i], b[i]));
}

// Bitwise ops keep the loop branch-free, so it vectorises; `bounds` is a
// local copy, so no store to `hits` can alias it.
[[gnu::always_inline]] inline void mask_loop(const std::uint8_t* r,
                                             const std::uint8_t* g,
                                             const std::uint8_t* b,
                                             SumBounds bounds,
                                             std::uint8_t* hits,
                                             std::size_t n) {
  for (std::size_t x = 0; x < n; ++x)
    hits[x] |= static_cast<std::uint8_t>(bounds.hit(r[x], g[x], b[x]));
}

[[gnu::always_inline]] inline void widen_loop(const std::uint8_t* row,
                                              std::size_t n, float* wide) {
  for (std::size_t x = 0; x < n; ++x) wide[x] = row[x];
}

[[gnu::always_inline]] inline void lerp_output_loop(const float* top,
                                                    const float* bot, float wy,
                                                    std::size_t n,
                                                    std::uint8_t* o) {
  for (std::size_t ox = 0; ox < n; ++ox)
    o[ox] = static_cast<std::uint8_t>(
        round_half_away(top[ox] + (bot[ox] - top[ox]) * wy));
}

void lerp_source_row_sse2(const std::uint8_t* row, const ColumnMap& map,
                          float* wide, float* h) {
  widen_loop(row, map.src_w, wide);
  const std::int32_t* x0 = map.x0.data();
  const std::int32_t* x1 = map.x1.data();
  const float* wx = map.wx.data();
  for (std::size_t ox = 0; ox < map.padded; ++ox) {
    const float p0 = wide[x0[ox]];
    const float p1 = wide[x1[ox]];
    h[ox] = p0 + (p1 - p0) * wx[ox];
  }
}

// GCC emits no gathers for the loop above, even under target("avx2") with
// int32 indices, so this body spells them out: eight columns per step, the
// same subtract, multiply and add per lane.
__attribute__((target("avx2"))) void lerp_source_row_avx2(
    const std::uint8_t* row, const ColumnMap& map, float* wide, float* h) {
  widen_loop(row, map.src_w, wide);
  const std::int32_t* x0 = map.x0.data();
  const std::int32_t* x1 = map.x1.data();
  const float* wx = map.wx.data();
  for (std::size_t ox = 0; ox < map.padded; ox += 8) {
    const __m256 p0 = _mm256_i32gather_ps(
        wide, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x0 + ox)),
        4);
    const __m256 p1 = _mm256_i32gather_ps(
        wide, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x1 + ox)),
        4);
    const __m256 d =
        _mm256_mul_ps(_mm256_sub_ps(p1, p0), _mm256_loadu_ps(wx + ox));
    _mm256_storeu_ps(h + ox, _mm256_add_ps(p0, d));
  }
}

/// Sixteen bytes widened to floats, exactly as widen_loop does.
__attribute__((target("avx512f"), always_inline)) inline __m512 widen_avx512(
    const std::uint8_t* p) {
  return _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))));
}

/// Lane i: window pixel rel[i] (in [0, 64)), where q0-q3 hold window pixels
/// 0-15, 16-31, 32-47 and 48-63. Two two-table permutes pick from pixels
/// 0-31 and 32-63 by index bits 0-4; bit 5 picks between them.
__attribute__((target("avx512f"), always_inline)) inline __m512 pick_avx512(
    __m512 q0, __m512 q1, __m512 q2, __m512 q3, __m512i rel) {
  const __m512 lo = _mm512_permutex2var_ps(q0, rel, q1);
  const __m512 hi = _mm512_permutex2var_ps(q2, rel, q3);
  return _mm512_mask_blend_ps(
      _mm512_test_epi32_mask(rel, _mm512_set1_epi32(32)), lo, hi);
}

// Sixteen columns per step from one 64-byte window at the group's base: no
// row of floats and no gathers. The same subtract, multiply and add per
// lane.
__attribute__((target("avx512f"))) void lerp_source_windows_avx512(
    const std::uint8_t* row, const ColumnMap& map, float* h) {
  const std::int32_t* base = map.base.data();
  const std::int32_t* rel0 = map.rel0.data();
  const std::int32_t* rel1 = map.rel1.data();
  const float* wx = map.wx.data();
  for (std::size_t ox = 0; ox < map.padded; ox += kResizeLanes) {
    const std::uint8_t* window = row + *base++;
    const __m512 q0 = widen_avx512(window);
    const __m512 q1 = widen_avx512(window + 16);
    const __m512 q2 = widen_avx512(window + 32);
    const __m512 q3 = widen_avx512(window + 48);
    const __m512 p0 =
        pick_avx512(q0, q1, q2, q3, _mm512_loadu_si512(rel0 + ox));
    const __m512 p1 =
        pick_avx512(q0, q1, q2, q3, _mm512_loadu_si512(rel1 + ox));
    const __m512 d =
        _mm512_mul_ps(_mm512_sub_ps(p1, p0), _mm512_loadu_ps(wx + ox));
    _mm512_storeu_ps(h + ox, _mm512_add_ps(p0, d));
  }
}

void lerp_output_row_sse2(const float* top, const float* bot, float wy,
                          std::size_t n, std::uint8_t* o) {
  lerp_output_loop(top, bot, wy, n, o);
}

__attribute__((target("avx2"))) void lerp_output_row_avx2(const float* top,
                                                          const float* bot,
                                                          float wy,
                                                          std::size_t n,
                                                          std::uint8_t* o) {
  lerp_output_loop(top, bot, wy, n, o);
}

__attribute__((target("avx512f,avx512bw"))) void lerp_output_row_avx512(
    const float* top, const float* bot, float wy, std::size_t n,
    std::uint8_t* o) {
  lerp_output_loop(top, bot, wy, n, o);
}

}  // namespace

template <float (*Channel)(int, int, int)>
void plane_sse2(const std::uint8_t* r, const std::uint8_t* g,
                const std::uint8_t* b, std::uint8_t* o, std::size_t n) {
  plane_loop<Channel>(r, g, b, o, n);
}

template <float (*Channel)(int, int, int)>
void plane_avx2(const std::uint8_t* r, const std::uint8_t* g,
                const std::uint8_t* b, std::uint8_t* o, std::size_t n) {
  plane_loop<Channel>(r, g, b, o, n);
}

void mask_row_sse2(const std::uint8_t* r, const std::uint8_t* g,
                   const std::uint8_t* b, SumBounds bounds, std::uint8_t* hits,
                   std::size_t n) {
  mask_loop(r, g, b, bounds, hits, n);
}

__attribute__((target("avx2"))) void mask_row_avx2(
    const std::uint8_t* r, const std::uint8_t* g, const std::uint8_t* b,
    SumBounds bounds, std::uint8_t* hits, std::size_t n) {
  mask_loop(r, g, b, bounds, hits, n);
}

__attribute__((target("avx512f,avx512bw"))) void mask_row_avx512(
    const std::uint8_t* r, const std::uint8_t* g, const std::uint8_t* b,
    SumBounds bounds, std::uint8_t* hits, std::size_t n) {
  mask_loop(r, g, b, bounds, hits, n);
}

template void plane_sse2<luma_f>(const std::uint8_t*, const std::uint8_t*,
                                 const std::uint8_t*, std::uint8_t*,
                                 std::size_t);
template void plane_avx2<luma_f>(const std::uint8_t*, const std::uint8_t*,
                                 const std::uint8_t*, std::uint8_t*,
                                 std::size_t);
template void plane_sse2<cb_f>(const std::uint8_t*, const std::uint8_t*,
                               const std::uint8_t*, std::uint8_t*,
                               std::size_t);
template void plane_avx2<cb_f>(const std::uint8_t*, const std::uint8_t*,
                               const std::uint8_t*, std::uint8_t*,
                               std::size_t);
template void plane_sse2<cr_f>(const std::uint8_t*, const std::uint8_t*,
                               const std::uint8_t*, std::uint8_t*,
                               std::size_t);
template void plane_avx2<cr_f>(const std::uint8_t*, const std::uint8_t*,
                               const std::uint8_t*, std::uint8_t*,
                               std::size_t);

const ResizeBody kResizeSse2{lerp_source_row_sse2, nullptr,
                             lerp_output_row_sse2};
const ResizeBody kResizeAvx2{lerp_source_row_avx2, nullptr,
                             lerp_output_row_avx2};
const ResizeBody kResizeAvx512{lerp_source_row_avx2,
                               lerp_source_windows_avx512,
                               lerp_output_row_avx512};

}  // namespace avd::img::detail
