// The two HOG kernels with one body per ISA (private to src/hog;
// tests/hog/test_cell_grid.cpp and test_block_grid.cpp run each body
// directly, so both are checked in one binary whatever the host picks):
//
//   * one cell row of the cell grid: pass 1 writes the vote index of every
//     pixel of its cell_size pixel rows, pass 2 votes them into the row's
//     cells, each cell's histogram written once;
//   * the block-row normaliser behind normalise_block_rows.
//
// Each has a baseline (scalar) body and an AVX-512F body, which compute the
// same bits. avd::cpu_has_avx512() picks the body once per process. The
// kernels build with -ffp-contract=off: AVX-512F has fused multiply-adds of
// its own, and a contracted sum of squares would change the normalised
// blocks (scripts/check_no_fma.sh fails on any vfmadd in an *_avx512 body).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "avd/hog/block_grid.hpp"
#include "avd/hog/hog.hpp"

namespace avd::hog::detail {

/// What one pixel adds to its cell histogram: `lo` to bin b0, then `hi` to
/// bin b1. b1 is always (b0 + 1) % bins: the next bin centre, wrapping from
/// the last bin to bin 0. `lo` and `hi` are non-negative.
struct Vote {
  float lo;
  float hi;
  std::uint16_t b0;
  std::uint16_t b1;
};
static_assert(sizeof(Vote) == 12 && offsetof(Vote, hi) == 4);

/// A vote as a whole zmm register: `lo` in lane b0, `hi` in lane b1 and
/// +0.0f in every other lane, bin b in lane b.
struct alignas(64) VoteRegister {
  float bin[16];
};

/// Index of gradient (gx, gy), both in [-255, 255], in VoteTables::votes.
[[nodiscard]] constexpr std::int32_t full_index(int gx, int gy) {
  return (gy + 255) * 511 + gx + 255;
}

/// The small gradients: |gx| and |gy| at most kSmallGradient. They are
/// nearly every pixel of a natural image (98% of a dark 1080p frame's have
/// |gx|, |gy| < 16).
inline constexpr int kSmallGradient = 31;

/// Index of small gradient (gx, gy) in VoteTables::registers.
[[nodiscard]] constexpr std::int32_t small_index(int gx, int gy) {
  return (gy + kSmallGradient) * (2 * kSmallGradient + 1) + gx +
         kSmallGradient;
}

/// The whole per-pixel vote of one bin count, tabulated. A central-
/// difference gradient of a u8 image is an integer pair (gx, gy) in
/// [-255, 255]^2, and a pixel's two bins and two magnitude shares depend on
/// that pair and the bin count alone. Each entry runs, once, the float
/// expressions of compute_gradients and the bin interpolation (sqrt, atan2,
/// the bin position, floor and wrap), so a lookup is bit-identical to
/// computing inline. 511^2 entries of 12 bytes, 3 MB; natural images
/// cluster around small gradients, so the hot centre rows stay cached.
/// For bin counts 2-16 the small gradients' votes are also kept as ready
/// registers: 63^2 of 64 bytes, 254 KB.
struct VoteTables {
  explicit VoteTables(int bins);

  int bins;
  std::vector<Vote> votes;  ///< entry full_index(gx, gy)
  /// Entry small_index(gx, gy): the vote of votes[full_index(gx, gy)] as a
  /// register. Empty unless bins is in [2, 16].
  std::vector<VoteRegister> registers;
};

/// The tables for `bins` (in [1, HogParams::kMaxBins]), built on first use
/// and kept for the process. After the first call for a bin count, a call
/// is one atomic load: no lock and no search.
[[nodiscard]] const VoteTables& vote_tables(int bins);

/// One cell row of the cell grid: cell row `cy` of `image` (pixel rows
/// cy * cell_size onwards, gradients clamped at the image's borders as
/// compute_gradients clamps them) into its image.width() / cell_size
/// histograms at `hist`, cell cx's tables.bins floats at hist + cx * bins.
/// Each histogram is written once, whatever it held: every bin takes its
/// votes in row-major pixel order, starting from +0.0f. `idx` is scratch
/// for the row's cell_size * usable_w pass-1 indices (usable_w = the cells'
/// width in pixels).
using VoteRow = void (*)(const VoteTables& tables, const img::ImageU8& image,
                         int cy, int cell_size, std::int32_t* idx,
                         float* hist);

/// Pass 1 writes full_index of every pixel; pass 2 is one table read and
/// two scalar adds per pixel.
void vote_row_scalar(const VoteTables& tables, const img::ImageU8& image,
                     int cy, int cell_size, std::int32_t* idx, float* hist);
/// Pass 1 (index_rows_avx512) writes an encoded index: small_index of a
/// small gradient, ~full_index of any other. Pass 2 keeps each cell's
/// histogram in one zmm register across all its votes, four cells side by
/// side; a small gradient's vote is one aligned load of its register, any
/// other's is built by a permute. Bins 1 (b0 == b1) and bins above 16 run
/// vote_row_scalar. Runs only where avd::cpu_has_avx512() holds.
void vote_row_avx512(const VoteTables& tables, const img::ImageU8& image,
                     int cy, int cell_size, std::int32_t* idx, float* hist);
/// Pass 1 of vote_row_avx512 for `rows` pixel rows from y0: row k's
/// usable_w encoded indices at idx + k * usable_w.
void index_rows_avx512(const img::ImageU8& image, int y0, int rows,
                       int usable_w, std::int32_t* idx);

/// compute_cell_grid with each cell row run by `vote_row`.
void compute_cell_grid(const img::ImageU8& image, const HogParams& params,
                       CellGrid& grid, VoteRow vote_row);

/// normalise_block_rows on checked arguments: rows [ay_begin, ay_end) of
/// `grid`, ay_begin < ay_end, fit `rows`.
using BlockRows = void (*)(const CellGrid& grid, const HogParams& params,
                           int ay_begin, int ay_end, BlockGrid& rows);

/// Eight anchors per l2hys_normalise run, gathered lane by lane.
void block_rows_scalar(const CellGrid& grid, const HogParams& params,
                       int ay_begin, int ay_end, BlockGrid& rows);
/// Sixteen anchors per run, one per zmm lane, each element row loaded
/// contiguously from cell rows copied into bin-major order. Runs only where
/// avd::cpu_has_avx512() holds.
void block_rows_avx512(const CellGrid& grid, const HogParams& params,
                       int ay_begin, int ay_end, BlockGrid& rows);

}  // namespace avd::hog::detail
