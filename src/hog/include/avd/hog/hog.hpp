// Histogram-of-Oriented-Gradients feature extraction (Dalal & Triggs [12]),
// the front end of the day/dusk vehicle detector and the pedestrian detector
// (paper Figs. 1-2).
//
// The extraction mirrors the paper's three hardware pipeline stages:
//   1. gradient + cell histogram generation   -> CellGrid   ("HOG memory")
//   2. block normalisation                    -> per-window ("normalised HOG memory")
//   3. SVM classification                     -> ml::LinearSvm (detect module)
// Computing the cell grid once per image and assembling per-window descriptors
// from it is the same memory-reuse structure the hardware uses.
#pragma once

#include <vector>

#include "avd/image/image.hpp"

namespace avd::hog {

/// HOG hyper-parameters. Defaults are the classic Dalal-Triggs values.
struct HogParams {
  /// Largest bin count: cell-grid votes store bin indices in 16 bits.
  static constexpr int kMaxBins = 65535;

  int cell_size = 8;        ///< pixels per cell side
  int bins = 9;             ///< orientation bins over [0, 180) degrees
  int block_cells = 2;      ///< block is block_cells x block_cells cells
  int block_stride_cells = 1;  ///< block step in cells
  float l2hys_clip = 0.2f;  ///< clipping threshold of L2-hys normalisation

  /// True when cell_size, block_cells and block_stride_cells are >= 1 and
  /// bins is in [1, kMaxBins]: the geometry every HOG stage can run with.
  [[nodiscard]] bool valid() const {
    return cell_size >= 1 && bins >= 1 && bins <= kMaxBins &&
           block_cells >= 1 && block_stride_cells >= 1;
  }
  /// Descriptor length for a window of `size` pixels (must align to cells
  /// and hold at least one block; throws std::invalid_argument otherwise).
  [[nodiscard]] std::size_t descriptor_length(img::Size size) const;
  /// Number of blocks along one axis for `cells` cells.
  [[nodiscard]] int blocks_along(int cells) const {
    return (cells - block_cells) / block_stride_cells + 1;
  }
};

/// Grid of per-cell orientation histograms covering a whole image.
class CellGrid {
 public:
  CellGrid() = default;
  CellGrid(int cells_x, int cells_y, int bins);

  [[nodiscard]] int cells_x() const { return cells_x_; }
  [[nodiscard]] int cells_y() const { return cells_y_; }
  [[nodiscard]] int bins() const { return bins_; }

  /// Histogram of cell (cx, cy): `bins` consecutive floats.
  [[nodiscard]] std::span<float> cell(int cx, int cy);
  [[nodiscard]] std::span<const float> cell(int cx, int cy) const;

 private:
  int cells_x_ = 0;
  int cells_y_ = 0;
  int bins_ = 0;
  std::vector<float> data_;
};

/// Gradient magnitude/orientation computed with centred [-1,0,1] masks.
struct GradientField {
  img::ImageF32 magnitude;
  img::ImageF32 orientation_deg;  ///< unsigned, [0, 180)
};

[[nodiscard]] GradientField compute_gradients(const img::ImageU8& image);

/// L2-hys block normalisation in place: L2-normalise, clip at `clip`,
/// renormalise (with an epsilon so zero-energy blocks stay zero). The single
/// normalisation primitive shared by window_descriptor and BlockGrid — both
/// paths must produce bit-identical vectors from the same raw block.
///
/// `blocks` holds a run of `count` (1 to 8) equal-length blocks, interleaved
/// element-major: element k of block j is blocks[k * count + j]. With
/// count 1 that is one plain block. Each block gets exactly the one-block
/// float operations in the one-block order; the run's serial sums just
/// proceed side by side.
void l2hys_normalise(std::span<float> blocks, float clip, int count = 1);

/// Stage 1: cell histograms with bilinear orientation-bin interpolation.
[[nodiscard]] CellGrid compute_cell_grid(const img::ImageU8& image,
                                         const HogParams& params = {});

/// Stage 2: assemble the L2-hys-normalised descriptor of the window whose
/// top-left cell is (cell_x, cell_y) spanning cells_w x cells_h cells.
/// `out` must have capacity descriptor_length; it is overwritten.
void window_descriptor(const CellGrid& grid, const HogParams& params, int cell_x,
                       int cell_y, int cells_w, int cells_h,
                       std::vector<float>& out);

/// Convenience: full descriptor of an entire image (window == image).
/// Image dimensions must be multiples of cell_size.
[[nodiscard]] std::vector<float> compute_descriptor(const img::ImageU8& image,
                                                    const HogParams& params = {});

}  // namespace avd::hog
