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

void vote_row_scalar(const Vote* votes, const std::int32_t* idx, int cells_x,
                     int cell_size, int bins, float* hist) {
  for (int cx = 0; cx < cells_x; ++cx, hist += bins) {
    for (int k = 0; k < cell_size; ++k) {
      // A copy, so the compiler need not reload it after the first add.
      const Vote v = votes[*idx++];
      hist[v.b0] += v.lo;
      hist[v.b1] += v.hi;
    }
  }
}

namespace {

/// The index rows of vote_avx512 for every bin count 2-16: row
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

/// The vote of table entry `i` as a register: `lo` in lane b0, `hi` in lane
/// b1 and +0.0f in every other lane. (lo, hi) is one 64-bit load into a
/// zeroed register, which perm[b0] permutes.
__attribute__((target("avx512f"), always_inline)) inline __m512 vote_avx512(
    const Vote* votes, std::int32_t i, const std::int32_t (*perm)[16]) {
  const Vote& v = votes[i];
  double pair;  // lo and hi: the entry's first 8 bytes, as one load
  std::memcpy(&pair, &v, sizeof pair);
  const __m128 lanes = _mm_castpd_ps(_mm_load_sd(&pair));
  return _mm512_permutexvar_ps(_mm512_load_si512(perm[v.b0]),
                               _mm512_zextps128_ps512(lanes));
}

}  // namespace

// Lane b of a cell's register is bin b. Each pixel adds its whole vote
// register, so bins b0 and b1 take lo and hi in pixel order, as in the scalar
// body, and every other bin adds +0.0f, which leaves it as it was: a
// histogram float is a sum of non-negative floats that starts at +0.0f.
// Four cells at a time, so four add chains overlap. Masked loads and stores
// touch only each cell's `bins` floats.
__attribute__((target("avx512f"))) void vote_row_avx512(
    const Vote* votes, const std::int32_t* idx, int cells_x, int cell_size,
    int bins, float* hist) {
  // Bins 1 adds both shares to one bin, and a register holds 16.
  if (bins < 2 || bins > 16) {
    vote_row_scalar(votes, idx, cells_x, cell_size, bins, hist);
    return;
  }
  const std::int32_t(*perm)[16] = kVotePermutations.rows[bins - 2];
  const auto mask = static_cast<__mmask16>((1u << bins) - 1);
  const int cs = cell_size;
  int cx = 0;
  for (; cx + 4 <= cells_x; cx += 4, hist += 4 * bins, idx += 4 * cs) {
    __m512 h0 = _mm512_maskz_loadu_ps(mask, hist);
    __m512 h1 = _mm512_maskz_loadu_ps(mask, hist + bins);
    __m512 h2 = _mm512_maskz_loadu_ps(mask, hist + 2 * bins);
    __m512 h3 = _mm512_maskz_loadu_ps(mask, hist + 3 * bins);
    for (int k = 0; k < cs; ++k) {
      h0 = _mm512_add_ps(h0, vote_avx512(votes, idx[k], perm));
      h1 = _mm512_add_ps(h1, vote_avx512(votes, idx[cs + k], perm));
      h2 = _mm512_add_ps(h2, vote_avx512(votes, idx[2 * cs + k], perm));
      h3 = _mm512_add_ps(h3, vote_avx512(votes, idx[3 * cs + k], perm));
    }
    _mm512_mask_storeu_ps(hist, mask, h0);
    _mm512_mask_storeu_ps(hist + bins, mask, h1);
    _mm512_mask_storeu_ps(hist + 2 * bins, mask, h2);
    _mm512_mask_storeu_ps(hist + 3 * bins, mask, h3);
  }
  for (; cx < cells_x; ++cx, hist += bins, idx += cs) {
    __m512 h = _mm512_maskz_loadu_ps(mask, hist);
    for (int k = 0; k < cs; ++k)
      h = _mm512_add_ps(h, vote_avx512(votes, idx[k], perm));
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
