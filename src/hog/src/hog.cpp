#include "avd/hog/hog.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>

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

namespace {

/// What one pixel adds to its cell histogram: `lo` to bin b0, then `hi` to
/// bin b1.
struct Vote {
  float lo;
  float hi;
  std::uint16_t b0;
  std::uint16_t b1;
};
static_assert(sizeof(Vote) == 12);

/// The whole per-pixel vote, tabulated. A central-difference gradient of a
/// u8 image is an integer pair (gx, gy) in [-255, 255]^2, and a pixel's two
/// bins and two magnitude shares depend on that pair and the bin count
/// alone. Each entry runs, once, the float expressions the per-pixel loop
/// used to run per pixel (sqrt, atan2, the bin position, floor and wrap),
/// so a lookup is bit-identical to computing inline and leaves the pixel
/// loop one table read and two adds. 511^2 entries of 12 bytes, 3 MB per
/// bin count; natural images cluster around small gradients, so the hot
/// centre rows stay cached.
class VoteTable {
 public:
  static constexpr int kRange = 511;  // gradient values -255..255
  static_assert(HogParams::kMaxBins ==
                std::numeric_limits<std::uint16_t>::max());

  explicit VoteTable(int bins)
      : votes_(static_cast<std::size_t>(kRange) * kRange) {
    constexpr float kRadToDeg = 180.0f / std::numbers::pi_v<float>;
    const float bin_width = 180.0f / static_cast<float>(bins);
    std::size_t i = 0;
    for (int dy = -255; dy <= 255; ++dy) {
      for (int dx = -255; dx <= 255; ++dx, ++i) {
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
        votes_[i] = {mag * (1.0f - w1), mag * w1,
                     static_cast<std::uint16_t>(b0),
                     static_cast<std::uint16_t>(b1)};
      }
    }
  }

  /// Vote of gradient (gx, gy), both in [-255, 255].
  [[nodiscard]] const Vote& operator()(int gx, int gy) const {
    return votes_[static_cast<std::size_t>((gy + 255) * kRange + gx + 255)];
  }

 private:
  std::vector<Vote> votes_;
};

/// The vote table for `bins`, built on first use and kept for the process.
const VoteTable& vote_table(int bins) {
  static std::mutex mutex;
  static std::map<int, std::unique_ptr<const VoteTable>> tables;
  const std::lock_guard lock(mutex);
  std::unique_ptr<const VoteTable>& table = tables[bins];
  if (!table) table = std::make_unique<const VoteTable>(bins);
  return *table;
}

}  // namespace

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
  if (params.cell_size <= 0 || params.bins <= 0 ||
      params.bins > HogParams::kMaxBins)
    throw std::invalid_argument("HOG: bad params");
  const int cells_x = image.width() / params.cell_size;
  const int cells_y = image.height() / params.cell_size;
  CellGrid grid(cells_x, cells_y, params.bins);
  if (cells_x == 0 || cells_y == 0) return grid;

  // Fused gradient + vote: the (gx, gy) pair of each pixel indexes the vote
  // table instead of calling sqrt/atan2 and interpolating per pixel. Votes
  // land in the order of a plain row-major pixel walk, so every histogram
  // float is bit-identical to voting off compute_gradients()
  // (tests/hog/test_cell_grid.cpp asserts it float for float).
  const VoteTable& votes = vote_table(params.bins);
  const int cs = params.cell_size;
  const int w = image.width();
  const int h = image.height();
  const int usable_w = cells_x * cs;
  // Columns [1, x_end) read both horizontal neighbours directly. Column 0
  // and, when the cells reach it, column w - 1 clamp to the border; they are
  // voted outside the interior loop, in their place in the walk.
  const int x_end = std::min(usable_w, w - 1);
  for (int y = 0; y < cells_y * cs; ++y) {
    const int cy = y / cs;
    const std::uint8_t* mid = image.row(y).data();
    const std::uint8_t* up = image.row(y > 0 ? y - 1 : 0).data();
    const std::uint8_t* down = image.row(y < h - 1 ? y + 1 : h - 1).data();
    const auto vote = [&](float* hist, int x, int gx) {
      const Vote& v = votes(gx, static_cast<int>(down[x]) -
                                    static_cast<int>(up[x]));
      hist[v.b0] += v.lo;
      hist[v.b1] += v.hi;
    };
    vote(grid.cell(0, cy).data(), 0,
         static_cast<int>(mid[w > 1 ? 1 : 0]) - static_cast<int>(mid[0]));
    for (int cx = 0; cx < cells_x; ++cx) {
      float* hist = grid.cell(cx, cy).data();
      const int end = std::min((cx + 1) * cs, x_end);
      for (int x = std::max(cx * cs, 1); x < end; ++x)
        vote(hist, x,
             static_cast<int>(mid[x + 1]) - static_cast<int>(mid[x - 1]));
    }
    if (usable_w == w && w > 1)
      vote(grid.cell(cells_x - 1, cy).data(), w - 1,
           static_cast<int>(mid[w - 1]) - static_cast<int>(mid[w - 2]));
  }
  return grid;
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
