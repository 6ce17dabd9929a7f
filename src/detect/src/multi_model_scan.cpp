#include "avd/detect/multi_model_scan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>

#include "avd/hog/block_grid.hpp"
#include "avd/image/resize.hpp"
#include "avd/ml/weight_slices.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/thread_pool.hpp"

namespace avd::det {
namespace {

/// Rows of window anchors per scan task. Small enough that a single pyramid
/// level splits across the pool, large enough that a task amortises its
/// dispatch. Fixed (never derived from thread count or timing) so the task
/// decomposition — and therefore the merged detection order — is a pure
/// function of the inputs.
constexpr int kBandRows = 8;

/// Windows scored per accumulate_lanes call. The per-window double
/// accumulator is a serial FP dependency chain (descriptor-order summation
/// is what makes scores bit-equal to the scalar reference); scoring 16
/// independent windows together lets those chains advance side by side
/// without changing any per-window operation order.
constexpr int kLanes = ml::WeightSlices::kLanes;

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
/// until no model's window fits.
std::vector<PyramidLevel> plan_pyramid(
    const img::ImageU8& frame, std::span<const HogSvmModel* const> models,
    const SlidingWindowParams& params) {
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

  // Every model classifies from the same normalised blocks; its weight
  // vector, sliced per block, turns a window score into a streamed sum of
  // per-block dot products.
  const std::size_t block_len = static_cast<std::size_t>(shared.block_cells) *
                                shared.block_cells * shared.bins;
  std::vector<ml::WeightSlices> slices;
  slices.reserve(models.size());
  for (const HogSvmModel* m : models) slices.emplace_back(m->svm, block_len);

  // Tasks run either inline (no pool) or cooperatively on the shared pool.
  // Either way results land in index-addressed slots, so the merged output
  // is the canonical (level, model, band, row, column) order — identical
  // detections for every thread count.
  const auto run_tasks = [&params](int count,
                                   const std::function<void(int)>& fn) {
    if (params.pool != nullptr && count > 1) {
      params.pool->run_indexed(count, fn);
    } else {
      for (int i = 0; i < count; ++i) fn(i);
    }
  };
  // Tasks may run on pool threads: re-install this frame's trace context so
  // per-level spans stay children of the detect_multiscale span.
  const obs::TraceContext scan_ctx = scan_span.context();

  // --- phase 1: per-level shared front end (resize + cells + blocks) -----
  struct FrontEnd {
    hog::BlockGrid blocks;
    int cells_x = 0;
    int cells_y = 0;
  };
  std::vector<FrontEnd> fronts(levels.size());
  run_tasks(n_levels, [&](int i) {
    const obs::TraceScope scope(scan_ctx);
    const PyramidLevel& level = levels[static_cast<std::size_t>(i)];
    const obs::ScopedSpan span(
        "hog_front_end", "detect/hogsvm",
        {{"level", level.index},
         {"width", level.size.width},
         {"height", level.size.height}});
    // The ledger's layers, each under its own span: pyramid resize (levels
    // past 0), cell grid, block grid. The resized level is freed as soon as
    // its cell grid exists.
    hog::CellGrid grid;
    {
      img::ImageU8 resized;
      if (level.index != 0) {
        const obs::ScopedSpan resize_span("pyramid_resize", "detect/hogsvm");
        resized = img::resize_bilinear(frame, level.size);
      }
      const obs::ScopedSpan cells_span("cell_grid", "detect/hogsvm");
      grid = hog::compute_cell_grid(level.index == 0 ? frame : resized, shared);
    }
    FrontEnd& fe = fronts[static_cast<std::size_t>(i)];
    fe.cells_x = grid.cells_x();
    fe.cells_y = grid.cells_y();
    const obs::ScopedSpan blocks_span("block_grid", "detect/hogsvm");
    fe.blocks = hog::compute_block_grid(grid, shared);
  });

  // --- phase 2: banded window scoring over the precomputed blocks --------
  struct Band {
    int level = 0;           ///< index into levels/fronts
    std::size_t model = 0;   ///< index into models/slices
    int ay_begin = 0;        ///< anchor-row range [ay_begin, ay_end)
    int ay_end = 0;
  };
  // Anchor lists per (level, model); bands built in canonical scan order.
  std::vector<std::vector<int>> xs(levels.size() * models.size());
  std::vector<std::vector<int>> ys(levels.size() * models.size());
  std::vector<Band> bands;
  for (int li = 0; li < n_levels; ++li) {
    for (std::size_t mi = 0; mi < models.size(); ++mi) {
      const std::size_t key = static_cast<std::size_t>(li) * models.size() + mi;
      const int cells_w = models[mi]->window.width / shared.cell_size;
      const int cells_h = models[mi]->window.height / shared.cell_size;
      const FrontEnd& fe = fronts[static_cast<std::size_t>(li)];
      xs[key] =
          window_anchor_positions(fe.cells_x, cells_w, params.stride_cells);
      ys[key] =
          window_anchor_positions(fe.cells_y, cells_h, params.stride_cells);
      if (xs[key].empty() || ys[key].empty()) continue;
      const int rows = static_cast<int>(ys[key].size());
      for (int begin = 0; begin < rows; begin += kBandRows)
        bands.push_back({li, mi, begin, std::min(begin + kBandRows, rows)});
    }
  }

  struct BandResult {
    std::vector<Detection> dets;
    std::uint64_t windows = 0;
  };
  std::vector<BandResult> results(bands.size());
  run_tasks(static_cast<int>(bands.size()), [&](int t) {
    const obs::TraceScope scope(scan_ctx);
    const Band& band = bands[static_cast<std::size_t>(t)];
    const PyramidLevel& level = levels[static_cast<std::size_t>(band.level)];
    const obs::ScopedSpan span(
        "scan_band", "detect/hogsvm",
        {{"level", level.index},
         {"model", static_cast<std::int64_t>(band.model)},
         {"rows", band.ay_end - band.ay_begin}});
    const FrontEnd& fe = fronts[static_cast<std::size_t>(band.level)];
    const HogSvmModel& m = *models[band.model];
    const ml::WeightSlices& ws = slices[band.model];
    const std::size_t key =
        static_cast<std::size_t>(band.level) * models.size() + band.model;
    const int blocks_x =
        shared.blocks_along(m.window.width / shared.cell_size);
    const int blocks_y =
        shared.blocks_along(m.window.height / shared.cell_size);
    BandResult& out = results[static_cast<std::size_t>(t)];
    const int bstride = shared.block_stride_cells;
    const std::vector<int>& axs = xs[key];
    const int n_x = static_cast<int>(axs.size());
    const auto emit = [&](int cx, int cy, double acc) {
      const double score = acc + ws.bias();
      ++out.windows;
      if (score < params.score_threshold) return;
      const img::Rect box{cx * shared.cell_size, cy * shared.cell_size,
                          m.window.width, m.window.height};
      out.dets.push_back(
          {img::scaled(box, level.scale, level.scale), score, m.class_id});
    };
    // Window block (wbx, wby) of the window at cell (cx, cy) is the grid
    // block anchored at (cx + wbx * bstride, cy + wby * bstride). Its
    // element k sits elem_stride * k past the pointer returned here, and
    // the blocks of the windows at cx + 1, cx + 2, ... follow it directly.
    const std::size_t elem_stride =
        static_cast<std::size_t>(fe.blocks.anchors_x());
    const auto block_at = [&](int cx, int cy, int wbx, int wby) {
      return fe.blocks.row(cy + wby * bstride, 0) + cx + wbx * bstride;
    };
    const auto anchor = [&axs](int xi) {
      return axs[static_cast<std::size_t>(xi)];
    };
    // Blocks stream through each window's accumulator in descriptor order,
    // so every score is the bit-exact LinearSvm::decision of the window's
    // (never materialised) descriptor. Windows score `lanes` at a time at
    // `lanes` consecutive cell positions, whose blocks are contiguous lanes
    // of every element row. A run starts at the next anchor, pulled left so
    // it ends by the row's last position, and emits the anchors it covers:
    // all of them at stride_cells 1; at coarser strides the lanes between
    // anchors are scored and dropped, which still costs less than scoring
    // each anchor alone. Rows with fewer positions than kLanes run eight
    // lanes, or one column at a time below that. Per-lane arithmetic and
    // emission order are the scalar path's.
    const int last = axs.back();  // bands exist only for non-empty rows
    const int lanes = last + 1 >= kLanes       ? kLanes
                      : last + 1 >= kLanes / 2 ? kLanes / 2
                                               : 1;
    for (int ayi = band.ay_begin; ayi < band.ay_end; ++ayi) {
      const int cy = ys[key][static_cast<std::size_t>(ayi)];
      for (int xi = 0; xi < n_x;) {
        const int c0 = std::min(anchor(xi), last - (lanes - 1));
        double acc[kLanes] = {};
        std::size_t b = 0;
        for (int wby = 0; wby < blocks_y; ++wby) {
          for (int wbx = 0; wbx < blocks_x; ++wbx, ++b) {
            const double* lane0 = block_at(c0, cy, wbx, wby);
            if (lanes == kLanes)
              ws.accumulate_lanes(b, lane0, elem_stride, acc);
            else if (lanes == kLanes / 2)
              ws.accumulate_half_lanes(b, lane0, elem_stride, acc);
            else
              ws.accumulate_column(b, lane0, elem_stride, acc[0]);
          }
        }
        for (; xi < n_x && anchor(xi) < c0 + lanes; ++xi)
          emit(anchor(xi), cy, acc[anchor(xi) - c0]);
      }
    }
  });

  // --- merge (canonical task order) + NMS ---------------------------------
  std::vector<Detection> raw;
  std::uint64_t windows_scanned = 0;
  for (BandResult& r : results) {
    windows_scanned += r.windows;
    raw.insert(raw.end(), r.dets.begin(), r.dets.end());
  }
  std::uint64_t blocks_normalised = 0;
  for (const FrontEnd& fe : fronts)
    blocks_normalised += static_cast<std::uint64_t>(fe.blocks.anchors_x()) *
                         static_cast<std::uint64_t>(fe.blocks.anchors_y());

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.counter("detect.hogsvm.frames").inc();
  registry.counter("detect.hogsvm.levels").inc(
      static_cast<std::uint64_t>(levels.size()));
  registry.counter("detect.hogsvm.scan_tasks").inc(
      static_cast<std::uint64_t>(bands.size()));
  registry.counter("detect.hogsvm.blocks_normalised").inc(blocks_normalised);
  registry.counter("detect.hogsvm.windows_scanned").inc(windows_scanned);
  registry.counter("detect.hogsvm.raw_detections").inc(raw.size());
  const obs::ScopedSpan nms_span("nms", "detect/hogsvm");
  return non_max_suppression(std::move(raw), params.nms_iou);
}

}  // namespace avd::det
