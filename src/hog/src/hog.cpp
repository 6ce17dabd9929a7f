#include "avd/hog/hog.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "avd/cpu.hpp"
#include "hog_kernels.hpp"

namespace avd::hog {

std::size_t HogParams::descriptor_length(img::Size size) const {
  if (!valid()) throw std::invalid_argument("HOG: bad params");
  if (size.width % cell_size != 0 || size.height % cell_size != 0)
    throw std::invalid_argument("HOG: window not aligned to cell size");
  const int cx = size.width / cell_size;
  const int cy = size.height / cell_size;
  if (cx < block_cells || cy < block_cells)
    throw std::invalid_argument("HOG: window smaller than one block");
  return static_cast<std::size_t>(blocks_along(cx)) * blocks_along(cy) *
         block_cells * block_cells * bins;
}

CellGrid::CellGrid(int cells_x, int cells_y, int bins)
    : cells_x_(cells_x),
      cells_y_(cells_y),
      bins_(bins),
      data_(static_cast<std::size_t>(cells_x) * cells_y * bins, 0.0f) {}

void CellGrid::reshape(int cells_x, int cells_y, int bins) {
  cells_x_ = cells_x;
  cells_y_ = cells_y;
  bins_ = bins;
  // Never shrinks, so a grid reused across pyramid levels and frames zeroes
  // nothing once it has held the largest level.
  const std::size_t size = static_cast<std::size_t>(cells_x) * cells_y * bins;
  if (data_.size() < size) data_.resize(size);
}

std::span<float> CellGrid::cell(int cx, int cy) {
  return {data_.data() +
              (static_cast<std::size_t>(cy) * cells_x_ + cx) * bins_,
          static_cast<std::size_t>(bins_)};
}

std::span<const float> CellGrid::cell(int cx, int cy) const {
  return {data_.data() +
              (static_cast<std::size_t>(cy) * cells_x_ + cx) * bins_,
          static_cast<std::size_t>(bins_)};
}

detail::VoteTables::VoteTables(int bins)
    : bins(bins), votes(static_cast<std::size_t>(511) * 511) {
  constexpr float kRadToDeg = 180.0f / std::numbers::pi_v<float>;
  static_assert(HogParams::kMaxBins ==
                std::numeric_limits<std::uint16_t>::max());
  const float bin_width = 180.0f / static_cast<float>(bins);
  for (int dy = -255; dy <= 255; ++dy) {
    for (int dx = -255; dx <= 255; ++dx) {
      // compute_gradients' expressions, kept apart from it so that
      // function stays an independent oracle for this table.
      const float gx = static_cast<float>(dx);
      const float gy = static_cast<float>(dy);
      const float mag = std::sqrt(gx * gx + gy * gy);
      float deg = std::atan2(gy, gx) * kRadToDeg;  // [-180, 180]
      if (deg < 0.0f) deg += 180.0f;               // unsigned orientation
      if (deg >= 180.0f) deg -= 180.0f;
      // Linear interpolation between the two nearest orientation bin
      // CENTRES (centre of bin b sits at (b + 0.5) * bin_width). The
      // unsigned-orientation wraparound pairs the last bin with bin 0:
      //   deg in [0, bin_width/2)          -> pos in [-0.5, 0), b0 = -1
      //     wraps to bins-1; mass splits across {bins-1, 0}.   (deg ~ 0)
      //   deg in [180 - bin_width/2, 180)  -> b0 = bins-1, b1 = bins
      //     wraps to 0; the same {bins-1, 0} pair.             (deg ~ 180)
      // The wrap above guarantees deg < 180 (180 - eps may round up to 180.0f
      // in float, but its wrap-to-zero runs after the +180 shift), so
      // pos < bins - 0.5 and b0 <= bins - 1 always. The two weights sum to
      // 1 whatever the boundary, so per-cell histogram mass equals
      // per-cell gradient mass exactly — tests/hog/test_cell_grid.cpp
      // asserts both properties at the exact boundary angles.
      //
      // The zero gradient (0, 0) gets magnitude 0, so both its shares are
      // +0.0f. Histograms only ever hold sums of non-negative floats, and
      // x + 0.0f == x for every such x, so voting it is the same as
      // skipping it.
      const float pos = deg / bin_width - 0.5f;
      int b0 = static_cast<int>(std::floor(pos));
      const float w1 = pos - static_cast<float>(b0);
      int b1 = b0 + 1;
      if (b0 < 0) b0 += bins;
      if (b1 >= bins) b1 -= bins;
      votes[static_cast<std::size_t>(detail::full_index(dx, dy))] = {
          mag * (1.0f - w1), mag * w1, static_cast<std::uint16_t>(b0),
          static_cast<std::uint16_t>(b1)};
    }
  }
  if (bins < 2 || bins > 16) return;
  constexpr int kSmall = detail::kSmallGradient;
  registers.resize(static_cast<std::size_t>(2 * kSmall + 1) *
                   (2 * kSmall + 1));  // every lane +0.0f
  for (int dy = -kSmall; dy <= kSmall; ++dy) {
    for (int dx = -kSmall; dx <= kSmall; ++dx) {
      const detail::Vote& v =
          votes[static_cast<std::size_t>(detail::full_index(dx, dy))];
      float* lanes =
          registers[static_cast<std::size_t>(detail::small_index(dx, dy))].bin;
      lanes[v.b0] = v.lo;
      lanes[v.b1] = v.hi;  // b1 != b0 at 2 bins and more
    }
  }
}

const detail::VoteTables& detail::vote_tables(int bins) {
  // One slot per bin count, constant-initialised: 512 KB of address space,
  // of which a process touches the page or two its bin counts index.
  constinit static std::atomic<const VoteTables*>
      slots[HogParams::kMaxBins + 1]{};
  std::atomic<const VoteTables*>& slot = slots[bins];
  if (const VoteTables* tables = slot.load(std::memory_order_acquire))
    return *tables;
  static std::mutex mutex;
  static std::vector<std::unique_ptr<const VoteTables>> built;
  const std::lock_guard lock(mutex);
  if (const VoteTables* tables = slot.load(std::memory_order_relaxed))
    return *tables;
  built.push_back(std::make_unique<const VoteTables>(bins));
  slot.store(built.back().get(), std::memory_order_release);
  return *built.back();
}

GradientField compute_gradients(const img::ImageU8& image) {
  GradientField field{img::ImageF32(image.size()), img::ImageF32(image.size())};
  constexpr float kRadToDeg = 180.0f / std::numbers::pi_v<float>;
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      const float gx = static_cast<float>(image.at_clamped(x + 1, y)) -
                       static_cast<float>(image.at_clamped(x - 1, y));
      const float gy = static_cast<float>(image.at_clamped(x, y + 1)) -
                       static_cast<float>(image.at_clamped(x, y - 1));
      field.magnitude(x, y) = std::sqrt(gx * gx + gy * gy);
      float deg = std::atan2(gy, gx) * kRadToDeg;  // [-180, 180]
      if (deg < 0.0f) deg += 180.0f;               // unsigned orientation
      if (deg >= 180.0f) deg -= 180.0f;
      field.orientation_deg(x, y) = deg;
    }
  }
  return field;
}

CellGrid compute_cell_grid(const img::ImageU8& image, const HogParams& params) {
  CellGrid grid;
  compute_cell_grid(image, params, grid);
  return grid;
}

void compute_cell_grid(const img::ImageU8& image, const HogParams& params,
                       CellGrid& grid) {
  static const detail::VoteRow vote_row = cpu_has_avx512()
                                              ? detail::vote_row_avx512
                                              : detail::vote_row_scalar;
  detail::compute_cell_grid(image, params, grid, vote_row);
}

void detail::compute_cell_grid(const img::ImageU8& image,
                               const HogParams& params, CellGrid& grid,
                               VoteRow vote_row) {
  if (params.cell_size <= 0 || params.bins <= 0 ||
      params.bins > HogParams::kMaxBins)
    throw std::invalid_argument("HOG: bad params");
  const int cs = params.cell_size;
  const int cells_x = image.width() / cs;
  const int cells_y = image.height() / cs;
  // No zero-fill: vote_row writes every cell of the grid once.
  grid.reshape(cells_x, cells_y, params.bins);
  if (cells_x == 0 || cells_y == 0) return;

  // Gradient + vote through the vote tables instead of sqrt/atan2 and the
  // interpolation per pixel, one cell row at a time: pass 1 writes every
  // pixel's table index for the row's cs pixel rows, pass 2 votes them
  // cell by cell, each cell's pixels in row-major order. So every bin takes
  // its votes in the order of a plain row-major pixel walk, and every
  // histogram float is bit-identical to voting off compute_gradients()
  // (tests/hog/test_cell_grid.cpp asserts it float for float).
  const VoteTables& tables = vote_tables(params.bins);
  // The pass-1 rows (61 KB at 1920 columns) stay with the thread.
  thread_local std::vector<std::int32_t> idx;
  idx.resize(static_cast<std::size_t>(cs) * cells_x * cs);
  for (int cy = 0; cy < cells_y; ++cy)
    vote_row(tables, image, cy, cs, idx.data(), grid.cell(0, cy).data());
}

namespace {

/// l2hys_normalise over N interleaved blocks of `len` elements. Lane j's
/// sums run over its own elements in element order, so every lane performs
/// the one-block sequence; the lanes are independent chains the compiler
/// lays side by side.
template <int N>
void l2hys_run(float* v, std::size_t len, float clip) {
  constexpr float kEps = 1e-6f;
  float norm2[N] = {};
  float inv[N];
  for (std::size_t k = 0; k < len; ++k)
    for (int j = 0; j < N; ++j) norm2[j] += v[k * N + j] * v[k * N + j];
  for (int j = 0; j < N; ++j) inv[j] = 1.0f / std::sqrt(norm2[j] + kEps);
  for (std::size_t k = 0; k < len; ++k)
    for (int j = 0; j < N; ++j)
      v[k * N + j] = std::min(v[k * N + j] * inv[j], clip);
  for (int j = 0; j < N; ++j) norm2[j] = 0.0f;
  for (std::size_t k = 0; k < len; ++k)
    for (int j = 0; j < N; ++j) norm2[j] += v[k * N + j] * v[k * N + j];
  for (int j = 0; j < N; ++j) inv[j] = 1.0f / std::sqrt(norm2[j] + kEps);
  for (std::size_t k = 0; k < len; ++k)
    for (int j = 0; j < N; ++j) v[k * N + j] *= inv[j];
}

}  // namespace

void l2hys_normalise(std::span<float> blocks, float clip, int count) {
  using Run = void (*)(float*, std::size_t, float);
  static constexpr Run kRuns[] = {l2hys_run<1>, l2hys_run<2>, l2hys_run<3>,
                                  l2hys_run<4>, l2hys_run<5>, l2hys_run<6>,
                                  l2hys_run<7>, l2hys_run<8>};
  if (count < 1 || count > 8)
    throw std::invalid_argument("l2hys_normalise: bad block run");
  const auto n = static_cast<std::size_t>(count);
  if (blocks.size() % n != 0)
    throw std::invalid_argument("l2hys_normalise: bad block run");
  kRuns[count - 1](blocks.data(), blocks.size() / n, clip);
}

void window_descriptor(const CellGrid& grid, const HogParams& params, int cell_x,
                       int cell_y, int cells_w, int cells_h,
                       std::vector<float>& out) {
  if (cell_x < 0 || cell_y < 0 || cell_x + cells_w > grid.cells_x() ||
      cell_y + cells_h > grid.cells_y())
    throw std::out_of_range("HOG: window outside cell grid");

  const int blocks_x = params.blocks_along(cells_w);
  const int blocks_y = params.blocks_along(cells_h);
  const std::size_t block_len =
      static_cast<std::size_t>(params.block_cells) * params.block_cells *
      params.bins;
  out.resize(static_cast<std::size_t>(blocks_x) * blocks_y * block_len);

  std::size_t offset = 0;
  for (int by = 0; by < blocks_y; ++by) {
    for (int bx = 0; bx < blocks_x; ++bx) {
      const std::size_t block_start = offset;
      for (int cy = 0; cy < params.block_cells; ++cy) {
        for (int cx = 0; cx < params.block_cells; ++cx) {
          auto hist = grid.cell(cell_x + bx * params.block_stride_cells + cx,
                                cell_y + by * params.block_stride_cells + cy);
          std::copy(hist.begin(), hist.end(), out.begin() + offset);
          offset += hist.size();
        }
      }
      l2hys_normalise({out.data() + block_start, block_len},
                      params.l2hys_clip);
    }
  }
}

std::vector<float> compute_descriptor(const img::ImageU8& image,
                                      const HogParams& params) {
  (void)params.descriptor_length(image.size());  // validates alignment
  const CellGrid grid = compute_cell_grid(image, params);
  std::vector<float> out;
  window_descriptor(grid, params, 0, 0, grid.cells_x(), grid.cells_y(), out);
  return out;
}

}  // namespace avd::hog
