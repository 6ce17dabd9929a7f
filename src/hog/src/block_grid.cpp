#include "avd/hog/block_grid.hpp"

#include <algorithm>
#include <stdexcept>

namespace avd::hog {
namespace {

/// Blocks normalised per l2hys_normalise run: one run fills eight anchors of
/// every element row.
constexpr int kRun = 8;

}  // namespace

BlockGrid::BlockGrid(int anchors_x, int anchors_y, int block_len)
    : anchors_x_(anchors_x),
      anchors_y_(anchors_y),
      block_len_(block_len),
      data_(static_cast<std::size_t>(anchors_x) * anchors_y * block_len, 0.0) {}

BlockGrid compute_block_grid(const CellGrid& grid, const HogParams& params) {
  if (params.block_cells <= 0)
    throw std::invalid_argument("BlockGrid: bad block size");
  const int ax_count = grid.cells_x() - params.block_cells + 1;
  const int ay_count = grid.cells_y() - params.block_cells + 1;
  const int block_len = params.block_cells * params.block_cells * grid.bins();
  if (ax_count <= 0 || ay_count <= 0) return {};

  BlockGrid blocks(ax_count, ay_count, block_len);
  // kRun consecutive anchors at a time, interleaved the way l2hys_normalise
  // takes a run: element k of the run's block j at run[k * kRun + j]. A
  // row's last run may hold fewer anchors; its spare lanes stay zero, which
  // normalises to zero and is never stored.
  const int bins = grid.bins();
  std::vector<float> run(static_cast<std::size_t>(kRun) * block_len);
  for (int ay = 0; ay < ay_count; ++ay) {
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
        double* out = blocks.row(ay, k) + ax0;
        const float* src = run.data() + static_cast<std::size_t>(k) * kRun;
        for (int j = 0; j < n; ++j) out[j] = src[j];  // exact widening
      }
    }
  }
  return blocks;
}

void window_descriptor(const BlockGrid& blocks, const HogParams& params,
                       int cell_x, int cell_y, int cells_w, int cells_h,
                       std::vector<float>& out) {
  const int blocks_x = params.blocks_along(cells_w);
  const int blocks_y = params.blocks_along(cells_h);
  if (cell_x < 0 || cell_y < 0 || blocks_x <= 0 || blocks_y <= 0 ||
      cell_x + (blocks_x - 1) * params.block_stride_cells >=
          blocks.anchors_x() ||
      cell_y + (blocks_y - 1) * params.block_stride_cells >=
          blocks.anchors_y())
    throw std::out_of_range("HOG: window outside block grid");

  const int block_len = blocks.block_len();
  out.resize(static_cast<std::size_t>(blocks_x) * blocks_y * block_len);
  auto dst = out.begin();
  for (int by = 0; by < blocks_y; ++by) {
    for (int bx = 0; bx < blocks_x; ++bx) {
      const int ax = cell_x + bx * params.block_stride_cells;
      const int ay = cell_y + by * params.block_stride_cells;
      // Every stored double came from a float: the narrowing is exact.
      for (int k = 0; k < block_len; ++k)
        *dst++ = static_cast<float>(blocks.at(ax, ay, k));
    }
  }
}

}  // namespace avd::hog
