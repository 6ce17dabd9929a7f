#include "avd/hog/block_grid.hpp"

#include <algorithm>
#include <stdexcept>

#include "avd/cpu.hpp"
#include "hog_kernels.hpp"

namespace avd::hog {
namespace {

std::size_t element_count(int anchors_x, int anchors_y, int block_len) {
  if (anchors_x < 0 || anchors_y < 0 || block_len < 0)
    throw std::invalid_argument("BlockGrid: negative size");
  return static_cast<std::size_t>(anchors_x) * anchors_y * block_len;
}

}  // namespace

BlockGrid::BlockGrid(int anchors_x, int anchors_y, int block_len)
    : anchors_x_(anchors_x),
      anchors_y_(anchors_y),
      block_len_(block_len),
      data_(std::make_unique_for_overwrite<double[]>(
          element_count(anchors_x, anchors_y, block_len))) {}

void normalise_block_rows(const CellGrid& grid, const HogParams& params,
                          int ay_begin, int ay_end, BlockGrid& rows) {
  if (params.block_cells <= 0)
    throw std::invalid_argument("BlockGrid: bad block size");
  const int ax_count = grid.cells_x() - params.block_cells + 1;
  const int ay_count = grid.cells_y() - params.block_cells + 1;
  const int block_len = params.block_cells * params.block_cells * grid.bins();
  if (ay_begin < 0 || ay_begin > ay_end || ay_end > std::max(ay_count, 0))
    throw std::invalid_argument("BlockGrid: anchor rows outside the grid");
  if (ay_begin == ay_end) return;
  if (rows.anchors_x() != ax_count || rows.anchors_y() <= 0 ||
      rows.block_len() != block_len)
    throw std::invalid_argument("BlockGrid: rows do not fit the grid");

  static const detail::BlockRows body = cpu_has_avx512()
                                           ? detail::block_rows_avx512
                                           : detail::block_rows_scalar;
  body(grid, params, ay_begin, ay_end, rows);
}

BlockGrid compute_block_grid(const CellGrid& grid, const HogParams& params) {
  if (params.block_cells <= 0)
    throw std::invalid_argument("BlockGrid: bad block size");
  const int ax_count = grid.cells_x() - params.block_cells + 1;
  const int ay_count = grid.cells_y() - params.block_cells + 1;
  if (ax_count <= 0 || ay_count <= 0) return {};
  BlockGrid blocks(ax_count, ay_count,
                   params.block_cells * params.block_cells * grid.bins());
  normalise_block_rows(grid, params, 0, ay_count, blocks);
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
