// Precomputed normalised block grid: HOG stage 2 hoisted out of the window
// loop.
//
// window_descriptor() re-runs L2-hys on every overlapping block of every
// window it assembles; in a dense sliding-window scan each block is shared by
// up to block-count-per-window windows, so the same normalisation ran ~49
// times (default 64x64 window) per block. A BlockGrid normalises every block
// of a pyramid level exactly once — the software twin of the paper's
// "normalised HOG memory" stage, which also writes each normalised block to
// block RAM once and lets every downstream classifier read it.
//
// Blocks are anchored at EVERY cell position (stride-1 anchors), not just at
// multiples of block_stride_cells: a window whose top-left cell is not a
// multiple of the block stride still needs the blocks anchored at its own
// offsets. Window block (wbx, wby) of a window anchored at cell (cx, cy) is
// grid block (cx + wbx * block_stride_cells, cy + wby * block_stride_cells).
//
// Layout: lane-major per anchor row. Element k of the block anchored at
// (ax, ay) sits at data[(ay * block_len + k) * anchors_x + ax], so one
// element of consecutive anchors is contiguous — the operand order of the
// scanner's eight-window SVM lanes (ml::WeightSlices::accumulate_lanes),
// which read it in place. Values are stored as doubles, each the exact
// conversion of the float l2hys_normalise produced (float -> double and back
// is lossless), so the scanner needs no second copy to score from.
//
// Equivalence guarantee: a block's stored vector is bit-identical to what
// window_descriptor would have produced for that block (same gather order,
// same l2hys arithmetic) — tests/hog/test_block_grid.cpp enforces this, and
// the scanner's bit-exactness against the scalar reference rests on it.
#pragma once

#include "avd/hog/hog.hpp"

namespace avd::hog {

/// Every L2-hys-normalised block of a cell grid, each computed once.
class BlockGrid {
 public:
  BlockGrid() = default;
  BlockGrid(int anchors_x, int anchors_y, int block_len);

  /// Block anchors along x/y: cells - block_cells + 1 (0 when the grid is
  /// smaller than one block).
  [[nodiscard]] int anchors_x() const { return anchors_x_; }
  [[nodiscard]] int anchors_y() const { return anchors_y_; }
  /// Values per block: block_cells^2 * bins, cell histograms in
  /// (cell_y, cell_x) order — the window_descriptor layout.
  [[nodiscard]] int block_len() const { return block_len_; }

  /// Element k of the block anchored at cell (ax, ay).
  [[nodiscard]] double at(int ax, int ay, int k) const {
    return data_[offset(ay, k) + static_cast<std::size_t>(ax)];
  }
  /// Element k of every block in anchor row ay: anchors_x consecutive
  /// values, one per anchor. Rows k and k + 1 are anchors_x apart.
  [[nodiscard]] double* row(int ay, int k) {
    return data_.data() + offset(ay, k);
  }
  [[nodiscard]] const double* row(int ay, int k) const {
    return data_.data() + offset(ay, k);
  }

 private:
  [[nodiscard]] std::size_t offset(int ay, int k) const {
    const auto len = static_cast<std::size_t>(block_len_);
    return (static_cast<std::size_t>(ay) * len + static_cast<std::size_t>(k)) *
           static_cast<std::size_t>(anchors_x_);
  }

  int anchors_x_ = 0;
  int anchors_y_ = 0;
  int block_len_ = 0;
  std::vector<double> data_;
};

/// Normalise every block of `grid` once. O(cells) memory and work, after
/// which any window descriptor (or sliced dot product) is pure reads.
[[nodiscard]] BlockGrid compute_block_grid(const CellGrid& grid,
                                           const HogParams& params);

/// Assemble the descriptor of the window anchored at cell (cell_x, cell_y)
/// from precomputed blocks. Bit-identical to the CellGrid overload of
/// window_descriptor (the per-window renormalising path).
void window_descriptor(const BlockGrid& blocks, const HogParams& params,
                       int cell_x, int cell_y, int cells_w, int cells_h,
                       std::vector<float>& out);

}  // namespace avd::hog
