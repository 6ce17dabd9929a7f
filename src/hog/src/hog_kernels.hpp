// The two HOG kernels with one body per ISA (private to src/hog;
// tests/hog/test_cell_grid.cpp and test_block_grid.cpp run each body
// directly, so both are checked in one binary whatever the host picks):
//
//   * pass 2 of the cell grid: one pixel row's votes into its cells;
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

/// Pass 2 of the cell grid for one pixel row: cell cx's `bins` floats at
/// hist + cx * bins take, for its `cell_size` pixels in order, the vote
/// votes[idx[cx * cell_size + k]]. So each bin receives its votes in pixel
/// order.
using VoteRow = void (*)(const Vote* votes, const std::int32_t* idx,
                         int cells_x, int cell_size, int bins, float* hist);

/// One read and two scalar adds per pixel.
void vote_row_scalar(const Vote* votes, const std::int32_t* idx, int cells_x,
                     int cell_size, int bins, float* hist);
/// Each cell's bins in one zmm register, four cells side by side. Bins 1
/// (b0 == b1) and bins above 16 run vote_row_scalar. Runs only where
/// avd::cpu_has_avx512() holds.
void vote_row_avx512(const Vote* votes, const std::int32_t* idx, int cells_x,
                     int cell_size, int bins, float* hist);

/// compute_cell_grid with its pass 2 run by `vote_row` (pass 1, the
/// vote-table index of every pixel of a row, is one baseline loop).
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
