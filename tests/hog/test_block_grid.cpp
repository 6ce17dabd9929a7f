#include "avd/hog/block_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <ostream>
#include <string>
#include <utility>

#include "../../src/hog/src/hog_kernels.hpp"
#include "avd/cpu.hpp"

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
  // in (cell_y, cell_x) order — the window_descriptor layout. Every anchor
  // is checked: the grid's storage starts uninitialised, so this also shows
  // compute_block_grid writes every element.
  const HogParams p;
  for (const int width : kRunWidths) {
    const CellGrid grid = compute_cell_grid(textured(width, 64, 3), p);
    const BlockGrid blocks = compute_block_grid(grid, p);
    for (int ay = 0; ay < blocks.anchors_y(); ++ay) {
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

TEST(BlockGrid, RingRowsMatchFullGridRows) {
  // The scanner's ring: rows written out of slot order into a ring of four,
  // wrapping, each byte-identical to compute_block_grid's row.
  for (const int bins : {9, 6}) {
    for (const int block_cells : {2, 3}) {
      HogParams p;
      p.bins = bins;
      p.block_cells = block_cells;
      const CellGrid grid = compute_cell_grid(textured(104, 96, bins), p);
      const BlockGrid full = compute_block_grid(grid, p);
      ASSERT_GE(full.anchors_y(), 9);
      BlockGrid ring(full.anchors_x(), 4, full.block_len());
      const std::size_t row_bytes = sizeof(double) * full.block_len() *
                                    static_cast<std::size_t>(full.anchors_x());
      for (const auto& [begin, end] :
           {std::pair{6, 9}, std::pair{0, 1}, std::pair{3, 6},
            std::pair{1, 3}, std::pair{full.anchors_y() - 4, full.anchors_y()},
            std::pair{5, 5}}) {
        normalise_block_rows(grid, p, begin, end, ring);
        for (int ay = begin; ay < end; ++ay)
          EXPECT_EQ(std::memcmp(ring.row(ay % 4, 0), full.row(ay, 0),
                                row_bytes),
                    0)
              << "bins " << bins << " block " << block_cells << " row " << ay;
      }
    }
  }
}

/// One block-row body, run directly whatever this host's dispatch picked.
struct BlockRowBody {
  const char* name;
  bool needs_avx512;
  detail::BlockRows rows;
};

void PrintTo(const BlockRowBody& body, std::ostream* os) { *os << body.name; }

class BlockRowBodies : public ::testing::TestWithParam<BlockRowBody> {
 protected:
  void SetUp() override {
    if (GetParam().needs_avx512 && !cpu_has_avx512())
      GTEST_SKIP() << "this CPU has no AVX-512F, so its body cannot run";
  }

  /// Every anchor row of `grid` through the body, into a ring of `ring_rows`
  /// rows filled `step` rows per call; each stored block must equal the
  /// one-block window_descriptor of its cells, element for element.
  void expect_blocks_match_window_descriptor(const CellGrid& grid,
                                             const HogParams& p, int ring_rows,
                                             int step,
                                             const std::string& what) const {
    const int ax_count = grid.cells_x() - p.block_cells + 1;
    const int ay_count = grid.cells_y() - p.block_cells + 1;
    ASSERT_GT(ax_count, 0) << what;
    ASSERT_GT(ay_count, 0) << what;
    const int block_len = p.block_cells * p.block_cells * grid.bins();
    BlockGrid ring(ax_count, ring_rows, block_len);
    std::vector<float> single;
    for (int begin = 0; begin < ay_count; begin += step) {
      const int end = std::min(ay_count, begin + step);
      GetParam().rows(grid, p, begin, end, ring);
      for (int ay = begin; ay < end; ++ay)
        for (int ax = 0; ax < ax_count; ++ax) {
          window_descriptor(grid, p, ax, ay, p.block_cells, p.block_cells,
                            single);
          for (int k = 0; k < block_len; ++k)
            ASSERT_EQ(ring.at(ax, ay % ring_rows, k),
                      single[static_cast<std::size_t>(k)])
                << what << " anchor (" << ax << "," << ay << ") element "
                << k;
        }
    }
  }
};

TEST_P(BlockRowBodies, EveryRunTailMatchesWindowDescriptor) {
  // Anchor rows of 1 to 34 anchors: runs of sixteen (and of eight) that are
  // short, exact, and ragged by every tail of 1-15 anchors.
  const HogParams p;
  for (int anchors = 1; anchors <= 34; ++anchors) {
    const int width = (anchors + p.block_cells - 1) * p.cell_size;
    const CellGrid grid = compute_cell_grid(textured(width, 40, anchors), p);
    expect_blocks_match_window_descriptor(grid, p, 4, 3,
                                          std::to_string(anchors) + " anchors");
  }
}

TEST_P(BlockRowBodies, EveryBlockSizeAndBinCountMatchesWindowDescriptor) {
  // Block sizes 1-3 share 0-2 cell rows between anchor rows; bins 1 and 17
  // give element counts that are not a multiple of 9. Whole-grid, ring and
  // one-row-per-call fills.
  for (const int block_cells : {1, 2, 3}) {
    for (const int bins : {1, 9, 17}) {
      HogParams p;
      p.block_cells = block_cells;
      p.bins = bins;
      const CellGrid grid =
          compute_cell_grid(textured(200, 72, block_cells * 5 + bins), p);
      const int ay_count = grid.cells_y() - block_cells + 1;
      const std::string what = "block " + std::to_string(block_cells) +
                               " bins " + std::to_string(bins);
      expect_blocks_match_window_descriptor(grid, p, ay_count, ay_count, what);
      expect_blocks_match_window_descriptor(grid, p, 3, 2, what + " ring");
      expect_blocks_match_window_descriptor(grid, p, 1, 1, what + " rows");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryIsa, BlockRowBodies,
    ::testing::Values(BlockRowBody{"Scalar", false, detail::block_rows_scalar},
                      BlockRowBody{"Avx512", true, detail::block_rows_avx512}),
    [](const ::testing::TestParamInfo<BlockRowBody>& info) {
      return std::string(info.param.name);
    });

TEST(BlockGrid, RowNormaliserRefusesRowsThatDoNotFit) {
  const HogParams p;
  const CellGrid grid = compute_cell_grid(textured(96, 64), p);  // 11x7
  BlockGrid ring(11, 3, 36);
  EXPECT_NO_THROW(normalise_block_rows(grid, p, 0, 7, ring));
  EXPECT_THROW(normalise_block_rows(grid, p, 0, 8, ring),
               std::invalid_argument);
  EXPECT_THROW(normalise_block_rows(grid, p, -1, 2, ring),
               std::invalid_argument);
  EXPECT_THROW(normalise_block_rows(grid, p, 3, 2, ring),
               std::invalid_argument);
  BlockGrid narrow(10, 3, 36);
  EXPECT_THROW(normalise_block_rows(grid, p, 0, 1, narrow),
               std::invalid_argument);
  BlockGrid short_blocks(11, 3, 27);
  EXPECT_THROW(normalise_block_rows(grid, p, 0, 1, short_blocks),
               std::invalid_argument);
  EXPECT_THROW(BlockGrid(11, -1, 36), std::invalid_argument);
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
