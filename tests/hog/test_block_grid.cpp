#include "avd/hog/block_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

namespace avd::hog {
namespace {

img::ImageU8 textured(int w, int h, int seed = 0) {
  img::ImageU8 im(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      im(x, y) = static_cast<std::uint8_t>((x * 31 + y * 57 + seed * 13 + x * y) % 256);
  return im;
}

TEST(BlockGrid, AnchorsAtEveryCellPosition) {
  const CellGrid grid = compute_cell_grid(textured(96, 64), {});
  const BlockGrid blocks = compute_block_grid(grid, {});
  // 12x8 cells, 2x2 blocks anchored at every cell: 11x7 anchors.
  EXPECT_EQ(blocks.anchors_x(), grid.cells_x() - 1);
  EXPECT_EQ(blocks.anchors_y(), grid.cells_y() - 1);
  EXPECT_EQ(blocks.block_len(), 4 * 9);
}

TEST(BlockGrid, TooSmallGridHasNoAnchors) {
  const CellGrid grid = compute_cell_grid(textured(8, 8), {});
  const BlockGrid blocks = compute_block_grid(grid, {});
  EXPECT_EQ(blocks.anchors_x(), 0);
  EXPECT_EQ(blocks.anchors_y(), 0);
}

/// Frame widths whose block grids have anchors_x = 1, 5, 7, 8, 9, 12, 16,
/// 17 and 19 at the default 8-pixel cells and 2x2 blocks: runs of eight
/// anchors that are short, exact and ragged.
constexpr int kRunWidths[] = {16, 48, 64, 72, 80, 104, 136, 144, 160};

TEST(BlockGrid, BlockIsL2HysOfGatheredCells) {
  // A stored block must be exactly l2hys_normalise() of its cells gathered
  // in (cell_y, cell_x) order — the window_descriptor layout.
  const HogParams p;
  for (const int width : kRunWidths) {
    const CellGrid grid = compute_cell_grid(textured(width, 64, 3), p);
    const BlockGrid blocks = compute_block_grid(grid, p);
    for (int ay : {0, 2, blocks.anchors_y() - 1}) {
      for (int ax = 0; ax < blocks.anchors_x(); ++ax) {
        std::vector<float> manual;
        for (int by = 0; by < p.block_cells; ++by)
          for (int bx = 0; bx < p.block_cells; ++bx) {
            const auto cell = grid.cell(ax + bx, ay + by);
            manual.insert(manual.end(), cell.begin(), cell.end());
          }
        l2hys_normalise(manual, p.l2hys_clip);
        ASSERT_EQ(static_cast<std::size_t>(blocks.block_len()), manual.size());
        for (std::size_t i = 0; i < manual.size(); ++i) {
          const double stored = blocks.at(ax, ay, static_cast<int>(i));
          EXPECT_EQ(stored, manual[i])
              << "width " << width << " anchor (" << ax << "," << ay
              << ") element " << i;
        }
      }
    }
  }
}

TEST(BlockGrid, RowsHoldOneElementOfConsecutiveAnchors) {
  // The lane-major layout the scanner reads in place: row(ay, k)[ax] is
  // element k of the block at (ax, ay), and row k + 1 follows row k.
  const CellGrid grid = compute_cell_grid(textured(104, 40, 5), {});
  const BlockGrid blocks = compute_block_grid(grid, {});
  for (int ay = 0; ay < blocks.anchors_y(); ++ay)
    for (int k = 0; k < blocks.block_len(); ++k) {
      EXPECT_EQ(blocks.row(ay, k) + blocks.anchors_x(),
                k + 1 < blocks.block_len() ? blocks.row(ay, k + 1)
                                           : blocks.row(ay + 1, 0));
      for (int ax = 0; ax < blocks.anchors_x(); ++ax)
        EXPECT_EQ(blocks.row(ay, k)[ax], blocks.at(ax, ay, k));
    }
}

TEST(BlockGrid, RunNormalisationMatchesOneBlockAtATime) {
  // l2hys_normalise over an interleaved run of n blocks gives each block
  // the one-block result, float for float, for every run length.
  std::vector<std::vector<float>> singles(8);
  for (int j = 0; j < 8; ++j)
    for (int k = 0; k < 36; ++k)
      singles[j].push_back(static_cast<float>((k * 37 + j * 11) % 23) * 0.37f +
                           (k == 5 ? 9.0f : 0.0f));
  std::fill(singles[3].begin(), singles[3].end(), 0.0f);  // zero energy
  for (int n = 1; n <= 8; ++n) {
    std::vector<float> run(static_cast<std::size_t>(n) * 36);
    for (int k = 0; k < 36; ++k)
      for (int j = 0; j < n; ++j) run[k * n + j] = singles[j][k];
    l2hys_normalise(run, 0.2f, n);
    for (int j = 0; j < n; ++j) {
      std::vector<float> one = singles[j];
      l2hys_normalise(one, 0.2f);
      for (int k = 0; k < 36; ++k)
        EXPECT_EQ(run[k * n + j], one[k]) << "run " << n << " block " << j;
    }
  }
  std::vector<float> bad(36);
  EXPECT_THROW(l2hys_normalise(bad, 0.2f, 0), std::invalid_argument);
  EXPECT_THROW(l2hys_normalise(bad, 0.2f, 9), std::invalid_argument);
  EXPECT_THROW(l2hys_normalise(bad, 0.2f, 5), std::invalid_argument);
}

TEST(BlockGrid, WindowDescriptorBitIdenticalToCellGridPath) {
  // The equivalence the whole scanner rests on: a descriptor assembled from
  // precomputed blocks is bit-for-bit the per-window renormalising one.
  const HogParams p;
  const CellGrid grid = compute_cell_grid(textured(160, 96, 7), p);
  const BlockGrid blocks = compute_block_grid(grid, p);

  std::vector<float> from_cells, from_blocks;
  for (const auto [cx, cy, cw, ch] :
       {std::array{0, 0, 8, 8}, std::array{5, 3, 8, 8},
        std::array{12, 4, 8, 8}, std::array{1, 1, 8, 6},
        std::array{0, 2, 4, 4}, std::array{16, 8, 4, 4}}) {
    window_descriptor(grid, p, cx, cy, cw, ch, from_cells);
    window_descriptor(blocks, p, cx, cy, cw, ch, from_blocks);
    ASSERT_EQ(from_cells.size(), from_blocks.size());
    for (std::size_t i = 0; i < from_cells.size(); ++i)
      EXPECT_EQ(from_cells[i], from_blocks[i])
          << "window (" << cx << "," << cy << "," << cw << "," << ch
          << ") element " << i;
  }
  // Every window position of grids whose anchor rows are shorter than,
  // equal to, or not a multiple of one eight-anchor run.
  for (const int width : kRunWidths) {
    const CellGrid cells = compute_cell_grid(textured(width, 48, width), p);
    const BlockGrid run_blocks = compute_block_grid(cells, p);
    for (const auto [cw, ch] : {std::array{2, 2}, std::array{4, 4},
                                std::array{cells.cells_x(), cells.cells_y()}})
      for (int cy = 0; cy + ch <= cells.cells_y(); ++cy)
        for (int cx = 0; cx + cw <= cells.cells_x(); ++cx) {
          window_descriptor(cells, p, cx, cy, cw, ch, from_cells);
          window_descriptor(run_blocks, p, cx, cy, cw, ch, from_blocks);
          ASSERT_EQ(from_cells.size(), from_blocks.size());
          for (std::size_t i = 0; i < from_cells.size(); ++i)
            EXPECT_EQ(from_cells[i], from_blocks[i])
                << "width " << width << " window (" << cx << "," << cy << ","
                << cw << "," << ch << ") element " << i;
        }
  }
}

TEST(BlockGrid, BitIdenticalWithStride2Blocks) {
  // Odd-offset windows need the stride-1 anchors even when the block stride
  // is 2: window blocks sit at cx + wbx*2, which is odd for odd cx.
  HogParams p;
  p.block_stride_cells = 2;
  std::vector<float> from_cells, from_blocks;
  // 128 px gives 15 anchors per row; 72 px gives exactly 8, 64 px 7.
  for (const int width : {128, 72, 64}) {
    const CellGrid grid = compute_cell_grid(textured(width, 96, 9), p);
    const BlockGrid blocks = compute_block_grid(grid, p);
    const int cells_w = std::min(8, grid.cells_x());
    for (int cy : {0, 1, 3}) {
      for (int cx : {0, 1, 5}) {
        if (cx + cells_w > grid.cells_x()) continue;
        window_descriptor(grid, p, cx, cy, cells_w, 8, from_cells);
        window_descriptor(blocks, p, cx, cy, cells_w, 8, from_blocks);
        ASSERT_EQ(from_cells.size(), from_blocks.size());
        for (std::size_t i = 0; i < from_cells.size(); ++i)
          EXPECT_EQ(from_cells[i], from_blocks[i]);
      }
    }
  }
}

TEST(BlockGrid, OutOfRangeWindowThrows) {
  const CellGrid grid = compute_cell_grid(textured(64, 64), {});
  const BlockGrid blocks = compute_block_grid(grid, {});
  std::vector<float> out;
  EXPECT_THROW(window_descriptor(blocks, {}, 4, 4, 8, 8, out),
               std::out_of_range);
  EXPECT_THROW(window_descriptor(blocks, {}, -1, 0, 4, 4, out),
               std::out_of_range);
  EXPECT_NO_THROW(window_descriptor(blocks, {}, 0, 0, 8, 8, out));
}

}  // namespace
}  // namespace avd::hog
