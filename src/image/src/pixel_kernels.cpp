#include "pixel_kernels.hpp"

#include <immintrin.h>

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

void lerp_source_row_sse2(const std::uint8_t* row, std::size_t src_w,
                          float* wide, const std::int32_t* x0,
                          const std::int32_t* x1, const float* wx,
                          std::size_t n, float* h) {
  widen_loop(row, src_w, wide);
  for (std::size_t ox = 0; ox < n; ++ox) {
    const float p0 = wide[x0[ox]];
    const float p1 = wide[x1[ox]];
    h[ox] = p0 + (p1 - p0) * wx[ox];
  }
}

// GCC emits no gathers for the loop above, even under target("avx2") with
// int32 indices, so this body spells them out: eight columns per step, the
// same subtract, multiply and add per lane.
__attribute__((target("avx2"))) void lerp_source_row_avx2(
    const std::uint8_t* row, std::size_t src_w, float* wide,
    const std::int32_t* x0, const std::int32_t* x1, const float* wx,
    std::size_t n, float* h) {
  widen_loop(row, src_w, wide);
  for (std::size_t ox = 0; ox < n; ox += kResizeLanes) {
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

const ResizeBody kResizeSse2{lerp_source_row_sse2, lerp_output_row_sse2};
const ResizeBody kResizeAvx2{lerp_source_row_avx2, lerp_output_row_avx2};

}  // namespace avd::img::detail
