#include "hog_kernels.hpp"

// GCC 12's unmasked AVX-512 intrinsics pass _mm512_undefined_*() as their
// unused merge source, whose self-initialisation draws a false
// -Wmaybe-uninitialized wherever they inline (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <algorithm>
#include <cstring>
#include <vector>

namespace avd::hog::detail {

namespace {

/// The three image rows pass 1 reads for pixel row y: y - 1, y and y + 1,
/// clamped to the image.
struct PixelRows {
  const std::uint8_t* up;
  const std::uint8_t* mid;
  const std::uint8_t* down;
};

PixelRows pixel_rows(const img::ImageU8& image, int y) {
  const int h = image.height();
  return {image.row(y > 0 ? y - 1 : 0).data(), image.row(y).data(),
          image.row(y < h - 1 ? y + 1 : h - 1).data()};
}

/// Columns [1, interior_end) read both horizontal neighbours directly.
/// Column 0 and, when the cells reach it, column w - 1 clamp to the border.
int interior_end(int w, int usable_w) { return std::min(usable_w, w - 1); }

/// Pass 1's border columns, through `encode`.
template <std::int32_t (*Encode)(int gx, int gy)>
void index_row_borders(const PixelRows& r, int w, int usable_w,
                       std::int32_t* idx) {
  idx[0] = Encode(r.mid[w > 1 ? 1 : 0] - r.mid[0], r.down[0] - r.up[0]);
  if (usable_w == w && w > 1)
    idx[w - 1] = Encode(r.mid[w - 1] - r.mid[w - 2],
                        r.down[w - 1] - r.up[w - 1]);
}

/// The baseline pass 1: full_index of every pixel of `rows` pixel rows from
/// y0. Integer work on neighbouring bytes, which the compiler vectorises.
void index_rows_scalar(const img::ImageU8& image, int y0, int rows,
                       int usable_w, std::int32_t* idx) {
  const int w = image.width();
  const int x_end = interior_end(w, usable_w);
  for (int k = 0; k < rows; ++k, idx += usable_w) {
    const PixelRows r = pixel_rows(image, y0 + k);
    index_row_borders<full_index>(r, w, usable_w, idx);
    for (int x = 1; x < x_end; ++x)
      idx[x] = full_index(r.mid[x + 1] - r.mid[x - 1], r.down[x] - r.up[x]);
  }
}

}  // namespace

void vote_row_scalar(const VoteTables& tables, const img::ImageU8& image,
                     int cy, int cell_size, std::int32_t* idx, float* hist) {
  const int cs = cell_size;
  const int cells_x = image.width() / cs;
  const int usable_w = cells_x * cs;
  const int bins = tables.bins;
  const Vote* votes = tables.votes.data();
  index_rows_scalar(image, cy * cs, cs, usable_w, idx);
  for (int cx = 0; cx < cells_x; ++cx, hist += bins) {
    std::fill(hist, hist + bins, 0.0f);
    for (int ky = 0; ky < cs; ++ky) {
      const std::int32_t* row =
          idx + static_cast<std::size_t>(ky) * usable_w + cx * cs;
      for (int kx = 0; kx < cs; ++kx) {
        // A copy, so the compiler need not reload it after the first add.
        const Vote v = votes[row[kx]];
        hist[v.b0] += v.lo;
        hist[v.b1] += v.hi;
      }
    }
  }
}

namespace {

/// The index rows of full_vote_avx512 for every bin count 2-16: row
/// [bins - 2][b0] sends lane 0 of the loaded pair (lo) to lane b0, lane 1
/// (hi) to lane b1 = (b0 + 1) % bins, and lane 2, a zero, everywhere else.
/// Built at compile time, so a call costs no set-up even on a 32x32 patch.
struct VotePermutations {
  alignas(64) std::int32_t rows[15][16][16];
};

constexpr VotePermutations make_vote_permutations() {
  VotePermutations p{};
  for (int bins = 2; bins <= 16; ++bins) {
    for (int b0 = 0; b0 < 16; ++b0) {
      std::int32_t* row = p.rows[bins - 2][b0];
      for (int lane = 0; lane < 16; ++lane) row[lane] = 2;
      if (b0 >= bins) continue;
      row[b0] = 0;
      row[(b0 + 1) % bins] = 1;
    }
  }
  return p;
}

constexpr VotePermutations kVotePermutations = make_vote_permutations();

/// index_rows_avx512's index of gradient (gx, gy): small_index of a small
/// gradient, ~full_index (negative) of any other.
constexpr std::int32_t encoded_index(int gx, int gy) {
  return gx >= -kSmallGradient && gx <= kSmallGradient &&
                 gy >= -kSmallGradient && gy <= kSmallGradient
             ? small_index(gx, gy)
             : ~full_index(gx, gy);
}

/// The vote of encoded index `e` as a register: lo in lane b0, hi in lane
/// b1 and +0.0f in every other lane. A small gradient's register is one
/// aligned load. Any other's (lo, hi) pair is one 64-bit load into a zeroed
/// register, which perm[b0] permutes.
__attribute__((target("avx512f"), always_inline)) inline __m512 vote_avx512(
    const VoteRegister* registers, const Vote* votes, std::int32_t e,
    const std::int32_t (*perm)[16]) {
  if (e >= 0) return _mm512_load_ps(registers[e].bin);
  const Vote& v = votes[~e];
  double pair;  // lo and hi: the entry's first 8 bytes, as one load
  std::memcpy(&pair, &v, sizeof pair);
  const __m128 lanes = _mm_castpd_ps(_mm_load_sd(&pair));
  return _mm512_permutexvar_ps(_mm512_load_si512(perm[v.b0]),
                               _mm512_zextps128_ps512(lanes));
}

/// Sixteen bytes from p, each widened to an int32 lane.
__attribute__((target("avx512f"), always_inline)) inline __m512i widen_avx512(
    const std::uint8_t* p) {
  return _mm512_cvtepu8_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

}  // namespace

// Sixteen pixels per step: the four neighbours widened to int32, then both
// indices by shifts and adds (gy * 63 = (gy << 6) - gy, gy * 511 =
// (gy << 9) - gy), and a blend on the small test, |g| <= 31 as the unsigned
// g + 31 <= 62. The border columns and a row's last few columns take
// encoded_index one pixel at a time.
__attribute__((target("avx512f"))) void index_rows_avx512(
    const img::ImageU8& image, int y0, int rows, int usable_w,
    std::int32_t* idx) {
  const int w = image.width();
  const int x_end = interior_end(w, usable_w);
  const __m512i small_bias = _mm512_set1_epi32(small_index(0, 0));
  const __m512i full_bias = _mm512_set1_epi32(full_index(0, 0));
  const __m512i edge = _mm512_set1_epi32(kSmallGradient);
  const __m512i span = _mm512_set1_epi32(2 * kSmallGradient);
  const __m512i ones = _mm512_set1_epi32(-1);
  for (int k = 0; k < rows; ++k, idx += usable_w) {
    const PixelRows r = pixel_rows(image, y0 + k);
    index_row_borders<encoded_index>(r, w, usable_w, idx);
    int x = 1;
    for (; x + 16 <= x_end; x += 16) {
      const __m512i gx = _mm512_sub_epi32(widen_avx512(r.mid + x + 1),
                                          widen_avx512(r.mid + x - 1));
      const __m512i gy = _mm512_sub_epi32(widen_avx512(r.down + x),
                                          widen_avx512(r.up + x));
      const __mmask16 small =
          _mm512_cmple_epu32_mask(_mm512_add_epi32(gx, edge), span) &
          _mm512_cmple_epu32_mask(_mm512_add_epi32(gy, edge), span);
      const __m512i s = _mm512_add_epi32(
          _mm512_sub_epi32(_mm512_slli_epi32(gy, 6), gy),
          _mm512_add_epi32(gx, small_bias));
      const __m512i f = _mm512_add_epi32(
          _mm512_sub_epi32(_mm512_slli_epi32(gy, 9), gy),
          _mm512_add_epi32(gx, full_bias));
      _mm512_storeu_si512(
          idx + x,
          _mm512_mask_blend_epi32(small, _mm512_xor_si512(f, ones), s));
    }
    for (; x < x_end; ++x)
      idx[x] = encoded_index(r.mid[x + 1] - r.mid[x - 1], r.down[x] - r.up[x]);
  }
}

// Lane b of a cell's register is bin b. The register starts at +0.0f and
// each pixel adds its whole vote register, so bins b0 and b1 take lo and hi
// in row-major pixel order, as in the scalar body, and every other bin adds
// +0.0f, which leaves it as it was: a histogram float is a sum of
// non-negative floats that starts at +0.0f. Four cells at a time, so four
// add chains overlap. One masked store per cell touches only its `bins`
// floats.
__attribute__((target("avx512f"))) void vote_row_avx512(
    const VoteTables& tables, const img::ImageU8& image, int cy,
    int cell_size, std::int32_t* idx, float* hist) {
  const int bins = tables.bins;
  // Bins 1 adds both shares to one bin, and a register holds 16.
  if (bins < 2 || bins > 16) {
    vote_row_scalar(tables, image, cy, cell_size, idx, hist);
    return;
  }
  const int cs = cell_size;
  const int cells_x = image.width() / cs;
  const int usable_w = cells_x * cs;
  index_rows_avx512(image, cy * cs, cs, usable_w, idx);
  const VoteRegister* registers = tables.registers.data();
  const Vote* votes = tables.votes.data();
  const std::int32_t(*perm)[16] = kVotePermutations.rows[bins - 2];
  const auto mask = static_cast<__mmask16>((1u << bins) - 1);
  int cx = 0;
  for (; cx + 4 <= cells_x; cx += 4, hist += 4 * bins) {
    __m512 h0 = _mm512_setzero_ps();
    __m512 h1 = _mm512_setzero_ps();
    __m512 h2 = _mm512_setzero_ps();
    __m512 h3 = _mm512_setzero_ps();
    for (int ky = 0; ky < cs; ++ky) {
      const std::int32_t* row =
          idx + static_cast<std::size_t>(ky) * usable_w + cx * cs;
      for (int kx = 0; kx < cs; ++kx) {
        h0 = _mm512_add_ps(h0, vote_avx512(registers, votes, row[kx], perm));
        h1 = _mm512_add_ps(h1,
                           vote_avx512(registers, votes, row[cs + kx], perm));
        h2 = _mm512_add_ps(
            h2, vote_avx512(registers, votes, row[2 * cs + kx], perm));
        h3 = _mm512_add_ps(
            h3, vote_avx512(registers, votes, row[3 * cs + kx], perm));
      }
    }
    _mm512_mask_storeu_ps(hist, mask, h0);
    _mm512_mask_storeu_ps(hist + bins, mask, h1);
    _mm512_mask_storeu_ps(hist + 2 * bins, mask, h2);
    _mm512_mask_storeu_ps(hist + 3 * bins, mask, h3);
  }
  for (; cx < cells_x; ++cx, hist += bins) {
    __m512 h = _mm512_setzero_ps();
    for (int ky = 0; ky < cs; ++ky) {
      const std::int32_t* row =
          idx + static_cast<std::size_t>(ky) * usable_w + cx * cs;
      for (int kx = 0; kx < cs; ++kx)
        h = _mm512_add_ps(h, vote_avx512(registers, votes, row[kx], perm));
    }
    _mm512_mask_storeu_ps(hist, mask, h);
  }
}

void block_rows_scalar(const CellGrid& grid, const HogParams& params,
                       int ay_begin, int ay_end, BlockGrid& rows) {
  // Blocks per l2hys_normalise run: one run fills eight anchors of every
  // element row.
  constexpr int kRun = 8;
  const int ax_count = rows.anchors_x();
  const int bins = grid.bins();
  const int block_len = rows.block_len();
  // kRun consecutive anchors at a time, interleaved the way l2hys_normalise
  // takes a run: element k of the run's block j at run[k * kRun + j]. A
  // row's last run may hold fewer anchors; its spare lanes stay zero, which
  // normalises to zero and is never stored.
  std::vector<float> run(static_cast<std::size_t>(kRun) * block_len);
  for (int ay = ay_begin; ay < ay_end; ++ay) {
    const int slot = ay % rows.anchors_y();
    for (int ax0 = 0; ax0 < ax_count; ax0 += kRun) {
      const int n = std::min(kRun, ax_count - ax0);
      if (n < kRun) std::fill(run.begin(), run.end(), 0.0f);
      // Same gather order as window_descriptor: cells (cy, cx), then bins.
      // Lane j's cell sits bins floats after lane j - 1's.
      float* dst = run.data();
      for (int cy = 0; cy < params.block_cells; ++cy) {
        for (int cx = 0; cx < params.block_cells; ++cx) {
          const float* src = grid.cell(ax0 + cx, ay + cy).data();
          for (int b = 0; b < bins; ++b, dst += kRun)
            for (int j = 0; j < n; ++j) dst[j] = src[j * bins + b];
        }
      }
      l2hys_normalise(run, params.l2hys_clip, kRun);
      for (int k = 0; k < block_len; ++k) {
        double* out = rows.row(slot, k) + ax0;
        const float* src = run.data() + static_cast<std::size_t>(k) * kRun;
        for (int j = 0; j < n; ++j) out[j] = src[j];  // exact widening
      }
    }
  }
}

namespace {

/// Cell row y of `grid` in bin-major order: bin b of cell cx at
/// out[b * cells_x + cx]. Element k of sixteen consecutive anchors is then
/// sixteen consecutive floats.
void bin_major_row(const CellGrid& grid, int y, float* out) {
  const int cells_x = grid.cells_x();
  const int bins = grid.bins();
  const float* src = grid.cell(0, y).data();
  for (int cx = 0; cx < cells_x; ++cx, src += bins)
    for (int b = 0; b < bins; ++b)
      out[static_cast<std::size_t>(b) * cells_x + cx] = src[b];
}

/// The per-thread buffers of block_rows_avx512: the block_cells cell rows an
/// anchor row reads, in bin-major order (cell row y in slot y % block_cells),
/// where each element of a block sits in them, and one run's clipped
/// blocks, element-major.
struct BlockRowScratch {
  std::vector<float> cell_rows;
  std::vector<int> held;  // the cell row in each slot, or -1
  std::vector<std::size_t> offset;  // element k's offset in cell_rows
  std::vector<float> run;
};

/// 1 / sqrt(norm2 + 1e-6f) per lane: l2hys_normalise's scale.
__attribute__((target("avx512f"), always_inline)) inline __m512 inv_norm_avx512(
    __m512 norm2) {
  return _mm512_div_ps(_mm512_set1_ps(1.0f),
                       _mm512_sqrt_ps(_mm512_add_ps(norm2, _mm512_set1_ps(1e-6f))));
}

}  // namespace

// Lane j normalises the block anchored at ax0 + j with the one-block
// l2hys_normalise sequence: the sum of squares in element order, 1 / sqrt,
// min(v * inv, clip) with the second sum in element order, 1 / sqrt again,
// v * inv. The sqrt and divide round correctly, as the scalar ones do, and
// _mm512_min_ps(clip, x) is std::min(x, clip)'s (clip < x ? clip : x). A
// row's last run masks its spare lanes: they load zeros, normalise to zero
// and are never stored.
__attribute__((target("avx512f"))) void block_rows_avx512(
    const CellGrid& grid, const HogParams& params, int ay_begin, int ay_end,
    BlockGrid& rows) {
  const int ax_count = rows.anchors_x();
  if (ax_count <= 0) return;
  const int bc = params.block_cells;
  const int cells_x = grid.cells_x();
  const int bins = grid.bins();
  const int block_len = rows.block_len();
  const std::size_t row_len = static_cast<std::size_t>(bins) * cells_x;
  thread_local BlockRowScratch scratch;
  scratch.cell_rows.resize(static_cast<std::size_t>(bc) * row_len);
  scratch.held.assign(static_cast<std::size_t>(bc), -1);
  scratch.offset.resize(static_cast<std::size_t>(block_len));
  scratch.run.resize(static_cast<std::size_t>(block_len) * 16);
  const __m512 clip = _mm512_set1_ps(params.l2hys_clip);

  for (int ay = ay_begin; ay < ay_end; ++ay) {
    for (int y = ay; y < ay + bc; ++y) {
      const auto s = static_cast<std::size_t>(y % bc);
      if (scratch.held[s] == y) continue;
      bin_major_row(grid, y, scratch.cell_rows.data() + s * row_len);
      scratch.held[s] = y;
    }
    // Element k = (cy, cx, b) of lane j is bin b of cell
    // (ax0 + j + cx, ay + cy): offset[k] + ax0 + j in the cell rows.
    std::size_t* offset = scratch.offset.data();
    for (int y = ay; y < ay + bc; ++y)
      for (int cx = 0; cx < bc; ++cx)
        for (int b = 0; b < bins; ++b)
          *offset++ = static_cast<std::size_t>(y % bc) * row_len +
                      static_cast<std::size_t>(b) * cells_x + cx;
    offset = scratch.offset.data();
    const int slot = ay % rows.anchors_y();
    for (int ax0 = 0; ax0 < ax_count; ax0 += 16) {
      const auto mask =
          static_cast<__mmask16>((1u << std::min(16, ax_count - ax0)) - 1);
      const float* base = scratch.cell_rows.data() + ax0;
      __m512 norm2 = _mm512_setzero_ps();
      for (int k = 0; k < block_len; ++k) {
        const __m512 v = _mm512_maskz_loadu_ps(mask, base + offset[k]);
        norm2 = _mm512_add_ps(norm2, _mm512_mul_ps(v, v));
      }
      __m512 inv = inv_norm_avx512(norm2);
      norm2 = _mm512_setzero_ps();
      float* run = scratch.run.data();
      for (int k = 0; k < block_len; ++k, run += 16) {
        const __m512 v = _mm512_min_ps(
            clip,
            _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, base + offset[k]), inv));
        _mm512_storeu_ps(run, v);
        norm2 = _mm512_add_ps(norm2, _mm512_mul_ps(v, v));
      }
      inv = inv_norm_avx512(norm2);
      run = scratch.run.data();
      for (int k = 0; k < block_len; ++k, run += 16) {
        const __m512 v = _mm512_mul_ps(_mm512_loadu_ps(run), inv);
        const __m256 high = _mm256_castpd_ps(
            _mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
        double* out = rows.row(slot, k) + ax0;  // exact widening
        _mm512_mask_storeu_pd(out, static_cast<__mmask8>(mask),
                              _mm512_cvtps_pd(_mm512_castps512_ps256(v)));
        _mm512_mask_storeu_pd(out + 8, static_cast<__mmask8>(mask >> 8),
                              _mm512_cvtps_pd(high));
      }
    }
  }
}

}  // namespace avd::hog::detail
