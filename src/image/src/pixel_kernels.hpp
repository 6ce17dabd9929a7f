// The per-pixel loops of the grey/YCbCr conversions, the fused taillight
// mask and resize_bilinear, one body per ISA (private to src/image;
// tests/image/test_pixel_kernels.cpp runs each body directly, so every body
// is checked in one binary whatever the host picks).
//
// The plane, mask and vertical-lerp loops are each written once and compiled
// for the x86-64 baseline (SSE2) and under __attribute__((target("avx2")));
// the mask and vertical-lerp loops also under target("avx512f,avx512bw"),
// whose byte loads, stores and ORs need AVX512BW to fill a zmm register.
// Every body runs the same float operations per pixel in the same order; a
// wider one holds more pixels per register. The resize's horizontal lerp has
// an SSE2 body, an AVX2 body that loads its source pixels with gathers, and
// an AVX-512F body that picks them from one 64-pixel window per 16 columns
// with permutes; a gather or a permute only replaces one load per lane.
// The kernels build with -ffp-contract=off, so no multiply fuses with an add
// (scripts/check_no_fma.sh fails on any vfmadd in an AVX2 or AVX-512 body).
// avd::cpu_has_avx512() and avd::cpu_has_avx2() pick the bodies once per
// process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "avd/image/image.hpp"
#include "avd/image/threshold.hpp"
#include "bt601.hpp"

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

/// The gates of TaillightThresholdParams restated on the unrounded BT.601
/// sums, so no pixel is rounded. For integer L in [1, 255],
/// round_to_u8(v) >= L holds exactly when v >= L - 0.5f; for integer C in
/// [0, 254], round_to_u8(v) <= C holds exactly when v < C + 0.5f (both
/// bounds are exact floats). The gates that pass every byte (L = 0,
/// C = 255) become infinite bounds, which pass every finite sum.
struct SumBounds {
  static constexpr float kInf = std::numeric_limits<float>::infinity();

  explicit SumBounds(const TaillightThresholdParams& p)
      : luma_lo(p.luma_min == 0 ? -kInf : p.luma_min - 0.5f),
        cr_lo(p.cr_min == 0 ? -kInf : p.cr_min - 0.5f),
        cb_hi(p.cb_max == 255 ? kInf : p.cb_max + 0.5f) {}

  float luma_lo;  ///< bright: luma sum >= luma_lo
  float cr_lo;    ///< red: cr sum >= cr_lo
  float cb_hi;    ///< not blue: cb sum < cb_hi

  [[nodiscard]] bool hit(int r, int g, int b) const {
    return (luma_f(r, g, b) >= luma_lo) & (cr_f(r, g, b) >= cr_lo) &
           (cb_f(r, g, b) < cb_hi);
  }
};

/// hits[x] |= bounds.hit(r[x], g[x], b[x]) for x < n: one source row of the
/// fused taillight mask.
using MaskRowFn = void (*)(const std::uint8_t* r, const std::uint8_t* g,
                           const std::uint8_t* b, SumBounds bounds,
                           std::uint8_t* hits, std::size_t n);
void mask_row_sse2(const std::uint8_t* r, const std::uint8_t* g,
                   const std::uint8_t* b, SumBounds bounds, std::uint8_t* hits,
                   std::size_t n);
/// Runs only where avd::cpu_has_avx2() holds.
void mask_row_avx2(const std::uint8_t* r, const std::uint8_t* g,
                   const std::uint8_t* b, SumBounds bounds, std::uint8_t* hits,
                   std::size_t n);
/// Runs only where avd::cpu_has_avx512() holds.
void mask_row_avx512(const std::uint8_t* r, const std::uint8_t* g,
                     const std::uint8_t* b, SumBounds bounds,
                     std::uint8_t* hits, std::size_t n);

/// The widest body's lanes: column maps are padded to a multiple of this.
inline constexpr std::size_t kResizeLanes = 16;
/// The source pixels one group of kResizeLanes columns may span for the
/// permute body: one 64-byte load.
inline constexpr std::size_t kResizeWindow = 64;

/// resize_bilinear's per-column map from a `src_w`-pixel row to `out_w`
/// columns, computed once per resize. The maps are int32, the gathers'
/// index type, padded to whole groups of kResizeLanes columns with index 0
/// and weight 0, so a padding lane reads pixel 0, inside the row, and its
/// lerp is never stored to the output.
struct ColumnMap {
  ColumnMap(int src_w, int out_w);

  std::size_t src_w;
  std::size_t padded;  ///< out_w rounded up to a multiple of kResizeLanes
  /// Source pixels of each column, with at_clamped's border clamp baked in:
  /// x0[ox] and x1[ox] lie in [0, src_w).
  std::vector<std::int32_t> x0, x1;
  std::vector<float> wx;  ///< weight of x1
  /// Group g of kResizeLanes columns reads source pixels base[g] +
  /// rel0[ox] and base[g] + rel1[ox]. base[g] <= src_w - kResizeWindow and
  /// every rel lies in [0, kResizeWindow), so the window is inside the row;
  /// a padding lane's rels are 0. Empty when src_w < kResizeWindow or a
  /// group spans more than kResizeWindow pixels (past a ~4.1x downscale).
  std::vector<std::int32_t> base, rel0, rel1;

  [[nodiscard]] bool windowed() const { return !base.empty(); }
};

/// The two row passes of resize_bilinear, for one ISA.
struct ResizeBody {
  /// Widens source row `row` (map.src_w pixels) to floats in `wide`, then
  /// h[ox] = p0 + (p1 - p0) * wx[ox] with p0 = wide[x0[ox]] and
  /// p1 = wide[x1[ox]], for ox < map.padded.
  void (*lerp_source_row)(const std::uint8_t* row, const ColumnMap& map,
                          float* wide, float* h);
  /// The same lerps with p0 and p1 read from each group's window of `row`,
  /// without `wide`; only on a windowed() map. Null in a body without one.
  void (*lerp_source_windows)(const std::uint8_t* row, const ColumnMap& map,
                              float* h);
  /// o[ox] = round_half_away(top[ox] + (bot[ox] - top[ox]) * wy) for
  /// ox < n.
  void (*lerp_output_row)(const float* top, const float* bot, float wy,
                          std::size_t n, std::uint8_t* o);
};

extern const ResizeBody kResizeSse2;
/// Runs only where avd::cpu_has_avx2() holds.
extern const ResizeBody kResizeAvx2;
/// The permute lerp (the AVX2 gather lerp where the map is not windowed)
/// and the AVX-512 vertical lerp; runs only where avd::cpu_has_avx512()
/// holds.
extern const ResizeBody kResizeAvx512;

/// resize_bilinear with its row passes run by `body`: the window lerp
/// where the body has one and the map is windowed, else the gather lerp.
[[nodiscard]] ImageU8 resize_bilinear(const ImageU8& src, Size out_size,
                                      const ResizeBody& body);

}  // namespace avd::img::detail
