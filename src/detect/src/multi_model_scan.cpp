#include "avd/detect/multi_model_scan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "avd/hog/block_grid.hpp"
#include "avd/image/resize.hpp"
#include "avd/ml/weight_slices.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/thread_pool.hpp"

namespace avd::det {
namespace {

/// Anchor rows per strip: a level is normalised and scored kBandRows rows of
/// window tops at a time, so its block ring holds the tallest window's span
/// plus kBandRows - 1 rows. Fixed (never derived from thread count or
/// timing), so the work a scan does is a pure function of its inputs.
constexpr int kBandRows = 8;

/// The most windows one accumulate_lanes call scores. The per-window double
/// accumulator is a serial FP dependency chain (descriptor-order summation
/// is what makes scores bit-equal to the scalar reference); scoring 32
/// independent windows together lets those chains advance side by side
/// without changing any per-window operation order.
constexpr int kLanes = ml::WeightSlices::kLanes;

/// Lanes of the run that scores the next `rest` window positions of a row
/// of `positions`: kLanes while the rest fills them, then the narrowest of
/// 1, 8, 16 and kLanes lanes that covers the rest, or, where none of those
/// the row can hold covers it, the widest the row can hold. A run never
/// reaches past the row, so a run of more lanes than the rest is pulled
/// left over positions already scored.
int run_lanes(int rest, int positions) {
  int lanes = 1;
  if (rest <= lanes) return lanes;
  for (const int tier : {8, 16, kLanes}) {
    if (tier > positions) break;
    lanes = tier;
    if (tier >= rest) break;
  }
  return lanes;
}

/// Every model must be one the scan can index safely: a valid HOG geometry
/// shared by all models, a cell-aligned window holding at least one block,
/// and exactly one SVM weight per descriptor element. The block-grid scan
/// reads weights by block index and divides by the block stride, so a
/// malformed model would otherwise read out of bounds or trap.
const hog::HogParams& validate_models(
    std::span<const HogSvmModel* const> models) {
  if (models.empty())
    throw std::invalid_argument("detect_multiscale_multi: no models");
  if (models.front() == nullptr)
    throw std::invalid_argument("detect_multiscale_multi: untrained model");
  const hog::HogParams& shared = models.front()->hog;
  for (const HogSvmModel* m : models) {
    if (m == nullptr || !m->svm.trained())
      throw std::invalid_argument("detect_multiscale_multi: untrained model");
    if (!m->hog.valid())
      throw std::invalid_argument("detect_multiscale_multi: bad HOG params");
    if (m->hog.cell_size != shared.cell_size || m->hog.bins != shared.bins ||
        m->hog.block_cells != shared.block_cells ||
        m->hog.block_stride_cells != shared.block_stride_cells)
      throw std::invalid_argument(
          "detect_multiscale_multi: models must share HOG geometry");
    // Throws std::invalid_argument for a misaligned or too-small window.
    if (m->svm.dimension() != m->hog.descriptor_length(m->window))
      throw std::invalid_argument(
          "detect_multiscale_multi: SVM dimension != descriptor length");
  }
  return shared;
}

struct PyramidLevel {
  int index = 0;
  double scale = 1.0;
  img::Size size;
};

/// The pyramid schedule, identical for both scan paths: shrink by scale_step
/// until no model's window fits. Refuses the settings that would scan
/// nothing, rescan level 0 or upsample, by img::Pyramid's rules.
std::vector<PyramidLevel> plan_pyramid(
    const img::ImageU8& frame, std::span<const HogSvmModel* const> models,
    const SlidingWindowParams& params) {
  if (params.stride_cells < 1)
    throw std::invalid_argument("detect_multiscale: stride_cells must be >= 1");
  if (params.max_levels < 1)
    throw std::invalid_argument("detect_multiscale: max_levels must be >= 1");
  if (!(params.scale_step > 1.0))  // NaN included
    throw std::invalid_argument("detect_multiscale: scale_step must exceed 1");
  std::vector<PyramidLevel> levels;
  double scale = 1.0;
  for (int level = 0; level < params.max_levels;
       ++level, scale *= params.scale_step) {
    const img::Size scaled{
        static_cast<int>(std::lround(frame.width() / scale)),
        static_cast<int>(std::lround(frame.height() / scale))};
    bool any_fits = false;
    for (const HogSvmModel* m : models)
      any_fits |= scaled.width >= m->window.width &&
                  scaled.height >= m->window.height;
    if (!any_fits) break;
    levels.push_back({level, scale, scaled});
  }
  return levels;
}

hog::CellGrid level_cell_grid(const img::ImageU8& frame,
                              const PyramidLevel& level,
                              const hog::HogParams& shared) {
  return level.index == 0
             ? hog::compute_cell_grid(frame, shared)
             : hog::compute_cell_grid(img::resize_bilinear(frame, level.size),
                                      shared);
}

}  // namespace

std::vector<int> window_anchor_positions(int cells, int window_cells,
                                         int stride_cells) {
  std::vector<int> anchors;
  if (window_cells <= 0 || window_cells > cells || stride_cells <= 0)
    return anchors;
  const int last = cells - window_cells;
  for (int pos = 0; pos < last; pos += stride_cells) anchors.push_back(pos);
  anchors.push_back(last);  // clamp: the edge window is always scanned
  return anchors;
}

std::vector<Detection> detect_multiscale_multi_reference(
    const img::ImageU8& frame, std::span<const HogSvmModel* const> models,
    const SlidingWindowParams& params) {
  const hog::HogParams& shared = validate_models(models);
  std::vector<Detection> raw;
  std::vector<float> desc;
  for (const PyramidLevel& level : plan_pyramid(frame, models, params)) {
    const hog::CellGrid grid = level_cell_grid(frame, level, shared);
    for (const HogSvmModel* m : models) {
      const int cells_w = m->window.width / shared.cell_size;
      const int cells_h = m->window.height / shared.cell_size;
      for (const int cy :
           window_anchor_positions(grid.cells_y(), cells_h,
                                   params.stride_cells)) {
        for (const int cx :
             window_anchor_positions(grid.cells_x(), cells_w,
                                     params.stride_cells)) {
          hog::window_descriptor(grid, shared, cx, cy, cells_w, cells_h, desc);
          const double score = m->svm.decision(desc);
          if (score < params.score_threshold) continue;
          const img::Rect box{cx * shared.cell_size, cy * shared.cell_size,
                              m->window.width, m->window.height};
          raw.push_back(
              {img::scaled(box, level.scale, level.scale), score, m->class_id});
        }
      }
    }
  }
  return non_max_suppression(std::move(raw), params.nms_iou);
}

std::vector<Detection> detect_multiscale_multi(
    const img::ImageU8& frame, std::span<const HogSvmModel* const> models,
    const SlidingWindowParams& params) {
  const obs::ScopedSpan scan_span("detect_multiscale", "detect/hogsvm");
  const hog::HogParams& shared = validate_models(models);
  const std::vector<PyramidLevel> levels = plan_pyramid(frame, models, params);
  const int n_levels = static_cast<int>(levels.size());
  const std::size_t n_models = models.size();
  const int bstride = shared.block_stride_cells;

  // Every model classifies from the same normalised blocks; its weight
  // vector, sliced per block, turns a window score into a streamed sum of
  // per-block dot products. A window reads blocks from `span` block rows.
  const int block_len = shared.block_cells * shared.block_cells * shared.bins;
  std::vector<ml::WeightSlices> slices;
  slices.reserve(n_models);
  int max_span = 0;
  for (const HogSvmModel* m : models) {
    slices.emplace_back(m->svm, static_cast<std::size_t>(block_len));
    const int span =
        (shared.blocks_along(m->window.height / shared.cell_size) - 1) *
            bstride + 1;
    max_span = std::max(max_span, span);
  }

  // One task per level, run inline (no pool) or cooperatively on the shared
  // pool. Each writes its own slot, so the merged output is the canonical
  // (level, model, row, column) order — identical for every thread count.
  struct LevelResult {
    std::vector<std::vector<Detection>> dets;  ///< per model
    std::uint64_t windows = 0;
    std::uint64_t blocks = 0;
  };
  std::vector<LevelResult> results(levels.size());
  // Pool threads re-install this frame's trace context, so every level's
  // spans stay children of the detect_multiscale span.
  const obs::TraceContext scan_ctx = scan_span.context();
  const auto scan_level = [&](int i) {
    const obs::TraceScope scope(scan_ctx);
    const PyramidLevel& level = levels[static_cast<std::size_t>(i)];
    LevelResult& out = results[static_cast<std::size_t>(i)];
    out.dets.resize(n_models);
    // The ledger's layers, each under its own span: pyramid resize (levels
    // past 0) and cell grid, then per strip block rows and window scores.
    // The resized level is freed as soon as its cell grid exists.
    //
    // The cell grid, the largest buffer of a level (1.17 MB at 1080p level
    // 0), stays with the thread from scan to scan. Allocated per level per
    // frame, whether it cost page faults depended on the heap's history:
    // with no free space inside the heap, glibc trimmed the heap's top and
    // faulted it in again every frame (DESIGN.md §17). A level task runs to
    // its end on one thread and starts no other task, so no two levels
    // share it.
    thread_local hog::CellGrid grid;
    {
      const obs::ScopedSpan span(
          "hog_front_end", "detect/hogsvm",
          {{"level", level.index},
           {"width", level.size.width},
           {"height", level.size.height}});
      img::ImageU8 resized;
      if (level.index != 0) {
        const obs::ScopedSpan resize_span("pyramid_resize", "detect/hogsvm");
        resized = img::resize_bilinear(frame, level.size);
      }
      const obs::ScopedSpan cells_span("cell_grid", "detect/hogsvm");
      hog::compute_cell_grid(level.index == 0 ? frame : resized, shared, grid);
    }
    // Some model's window fits the level, so it holds at least one block.
    const int anchors_x = grid.cells_x() - shared.block_cells + 1;
    const int anchors_y = grid.cells_y() - shared.block_cells + 1;
    const int ring_rows = std::min(anchors_y, max_span + kBandRows - 1);
    hog::BlockGrid ring(anchors_x, ring_rows, block_len);
    out.blocks = static_cast<std::uint64_t>(anchors_x) *
                 static_cast<std::uint64_t>(anchors_y);

    // Every model's window anchors, and its next window top to score.
    std::vector<std::vector<int>> xs(n_models), ys(n_models);
    std::vector<std::size_t> next_top(n_models, 0);
    for (std::size_t mi = 0; mi < n_models; ++mi) {
      xs[mi] = window_anchor_positions(
          grid.cells_x(), models[mi]->window.width / shared.cell_size,
          params.stride_cells);
      ys[mi] = window_anchor_positions(
          grid.cells_y(), models[mi]->window.height / shared.cell_size,
          params.stride_cells);
      if (xs[mi].empty()) ys[mi].clear();
    }
    std::vector<const double*> block_rows(static_cast<std::size_t>(max_span));
    const std::size_t elem_stride = static_cast<std::size_t>(anchors_x);

    // Score model mi's windows whose top row is cy. Window block (wbx, wby)
    // of the window at cell (cx, cy) is the block anchored at
    // (cx + wbx * bstride, cy + wby * bstride), in ring slot
    // (cy + wby * bstride) % ring_rows. Its element k sits elem_stride * k
    // past it, and the blocks of the windows at cx + 1, ... follow it.
    //
    // Blocks stream through each window's accumulator in descriptor order,
    // so every score is the bit-exact LinearSvm::decision of the window's
    // (never materialised) descriptor. Windows score `lanes` at a time at
    // `lanes` consecutive cell positions, whose blocks are contiguous lanes
    // of every element row. A run starts at the next anchor, pulled left so
    // it ends by the row's last position, and emits the anchors it covers:
    // all of them at stride_cells 1; at coarser strides the lanes between
    // anchors are scored and dropped, which still costs less than scoring
    // each anchor alone. run_lanes picks each run's width: kLanes while the
    // rest of the row fills them, then the narrowest that finishes it.
    // Per-lane arithmetic and emission order are the scalar path's.
    const auto score_row = [&](std::size_t mi, int cy) {
      const HogSvmModel& m = *models[mi];
      const ml::WeightSlices& ws = slices[mi];
      const int blocks_x =
          shared.blocks_along(m.window.width / shared.cell_size);
      const int blocks_y =
          shared.blocks_along(m.window.height / shared.cell_size);
      for (int wby = 0; wby < blocks_y; ++wby)
        block_rows[static_cast<std::size_t>(wby)] =
            ring.row((cy + wby * bstride) % ring_rows, 0);
      const std::vector<int>& axs = xs[mi];
      const int n_x = static_cast<int>(axs.size());
      const int last = axs.back();
      for (int xi = 0; xi < n_x;) {
        const int next = axs[static_cast<std::size_t>(xi)];
        const int lanes = run_lanes(last - next + 1, last + 1);
        const int c0 = std::min(next, last - (lanes - 1));
        double acc[kLanes] = {};
        std::size_t b = 0;
        for (int wby = 0; wby < blocks_y; ++wby) {
          const double* row = block_rows[static_cast<std::size_t>(wby)] + c0;
          for (int wbx = 0; wbx < blocks_x; ++wbx, ++b) {
            const double* lane0 = row + wbx * bstride;
            if (lanes == 1)
              ws.accumulate_column(b, lane0, elem_stride, acc[0]);
            else
              ws.accumulate_lanes(lanes, b, lane0, elem_stride, acc);
          }
        }
        for (; xi < n_x && axs[static_cast<std::size_t>(xi)] < c0 + lanes;
             ++xi) {
          const int cx = axs[static_cast<std::size_t>(xi)];
          const double score = acc[cx - c0] + ws.bias();
          ++out.windows;
          if (score < params.score_threshold) continue;
          const img::Rect box{cx * shared.cell_size, cy * shared.cell_size,
                              m.window.width, m.window.height};
          out.dets[mi].push_back(
              {img::scaled(box, level.scale, level.scale), score, m.class_id});
        }
      }
    };

    // Strips of kBandRows window tops. Before a strip scores, the ring holds
    // block rows [top, top + ring_rows) — every row its windows read — and
    // each row is normalised once, overwriting one no later strip reads.
    int filled = 0;
    for (int top = 0; top < anchors_y; top += kBandRows) {
      const int bottom = top + kBandRows;
      const int want = std::min(anchors_y, top + ring_rows);
      if (want > filled) {
        const obs::ScopedSpan blocks_span(
            "block_grid", "detect/hogsvm",
            {{"level", level.index}, {"rows", want - filled}});
        hog::normalise_block_rows(grid, shared, filled, want, ring);
        filled = want;
      }
      const obs::ScopedSpan span("scan_band", "detect/hogsvm",
                                 {{"level", level.index}, {"top", top}});
      for (std::size_t mi = 0; mi < n_models; ++mi)
        for (std::size_t& t = next_top[mi];
             t < ys[mi].size() && ys[mi][t] < bottom; ++t)
          score_row(mi, ys[mi][t]);
    }
  };
  if (params.pool != nullptr && n_levels > 1) {
    params.pool->run_indexed(n_levels, scan_level);
  } else {
    for (int i = 0; i < n_levels; ++i) scan_level(i);
  }

  // --- merge (canonical level, model order) + NMS --------------------------
  std::vector<Detection> raw;
  std::uint64_t windows_scanned = 0;
  std::uint64_t blocks_normalised = 0;
  for (LevelResult& r : results) {
    windows_scanned += r.windows;
    blocks_normalised += r.blocks;
    for (std::vector<Detection>& dets : r.dets)
      raw.insert(raw.end(), dets.begin(), dets.end());
  }

  // Resolved once: a by-name lookup takes the registry's one mutex, which
  // every scrape and telemetry sample also takes to walk the series (the
  // registry never drops a series).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  static obs::Counter& frames = registry.counter("detect.hogsvm.frames");
  static obs::Counter& level_count = registry.counter("detect.hogsvm.levels");
  static obs::Counter& blocks =
      registry.counter("detect.hogsvm.blocks_normalised");
  static obs::Counter& windows =
      registry.counter("detect.hogsvm.windows_scanned");
  static obs::Counter& raw_count =
      registry.counter("detect.hogsvm.raw_detections");
  frames.inc();
  level_count.inc(static_cast<std::uint64_t>(levels.size()));
  blocks.inc(blocks_normalised);
  windows.inc(windows_scanned);
  raw_count.inc(raw.size());
  const obs::ScopedSpan nms_span("nms", "detect/hogsvm");
  return non_max_suppression(std::move(raw), params.nms_iou);
}

}  // namespace avd::det
