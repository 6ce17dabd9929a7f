#include "avd/detect/dark_detector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>

#include "avd/image/filter.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/thread_pool.hpp"

namespace avd::det {

namespace {

/// Gather plan for one blob: its window anchors plus the index range its
/// windows occupy in the frame's packed patch matrix — the scatter step maps
/// posterior rows back to blobs through `first`.
struct BlobWindows {
  std::vector<int> xs;       ///< window x anchors (canonical inner order)
  std::vector<int> ys;       ///< window y anchors (canonical outer order)
  std::size_t first = 0;     ///< first row in the packed patch matrix
  [[nodiscard]] std::size_t count() const { return xs.size() * ys.size(); }
};

/// Fill one 9x9 binary patch row of the packed matrix.
void pack_window(const img::ImageU8& binary, int wx, int wy,
                 std::span<float> row) {
  constexpr int kWin = data::kTaillightWindow;
  // Interior windows (the overwhelming majority) need no clamping: each
  // patch row is a contiguous byte run, so skip the per-pixel bounds math.
  // Both paths write the same 0.0f/1.0f values, so the fast path cannot
  // change detections.
  if (wx >= 0 && wy >= 0 && wx + kWin <= binary.width() &&
      wy + kWin <= binary.height()) {
    const std::size_t stride = static_cast<std::size_t>(binary.width());
    const std::uint8_t* base =
        binary.pixels().data() + static_cast<std::size_t>(wy) * stride + wx;
    for (int dy = 0; dy < kWin; ++dy) {
      const std::uint8_t* src = base + static_cast<std::size_t>(dy) * stride;
      float* dst = row.data() + static_cast<std::size_t>(dy) * kWin;
      for (int dx = 0; dx < kWin; ++dx) dst[dx] = src[dx] != 0 ? 1.0f : 0.0f;
    }
    return;
  }
  for (int dy = 0; dy < kWin; ++dy)
    for (int dx = 0; dx < kWin; ++dx)
      row[static_cast<std::size_t>(dy) * kWin + dx] =
          binary.at_clamped(wx + dx, wy + dy) != 0 ? 1.0f : 0.0f;
}

/// Aggregate a blob's window posteriors into a detection. `posterior` is
/// called once per window in canonical (y outer, x inner) order and must
/// append kTaillightClasses floats for that window — the double sums below
/// therefore see the same addends in the same order in the batched and
/// per-window paths.
bool aggregate_blob(const img::Blob& blob,
                    std::span<const float> posteriors, double min_confidence,
                    TaillightDetection& det) {
  const std::size_t windows = posteriors.size() / data::kTaillightClasses;
  if (windows == 0) return false;
  det.blob_box = blob.bbox;
  det.blob_area = blob.area;
  det.center = {static_cast<int>(std::lround(blob.centroid_x)),
                static_cast<int>(std::lround(blob.centroid_y))};

  double posterior_sum[data::kTaillightClasses] = {};
  for (std::size_t w = 0; w < windows; ++w)
    for (int cls = 0; cls < data::kTaillightClasses; ++cls)
      posterior_sum[cls] += posteriors[w * data::kTaillightClasses +
                                       static_cast<std::size_t>(cls)];

  for (int cls = 1; cls < data::kTaillightClasses; ++cls) {
    const double mean = posterior_sum[cls] / static_cast<double>(windows);
    if (mean > det.confidence) {
      det.confidence = mean;
      det.cls = static_cast<data::TaillightClass>(cls);
    }
  }
  // Background must not dominate the aggregate.
  const double background = posterior_sum[0] / static_cast<double>(windows);
  return det.cls != data::TaillightClass::NotTaillight &&
         det.confidence >= min_confidence && det.confidence > background;
}

}  // namespace

DarkVehicleDetector::DarkVehicleDetector(ml::Dbn taillight_dbn,
                                         ml::LinearSvm pairing_svm,
                                         DarkDetectorConfig config)
    : dbn_(std::move(taillight_dbn)),
      pairing_svm_(std::move(pairing_svm)),
      config_(config) {
  if (dbn_.input_size() != data::kTaillightInputs ||
      dbn_.classes() != data::kTaillightClasses)
    throw std::invalid_argument("DarkVehicleDetector: DBN shape mismatch");
  if (pairing_svm_.dimension() != kPairFeatureCount)
    throw std::invalid_argument("DarkVehicleDetector: pairing SVM dimension");
  if (config_.downsample_factor <= 0)
    throw std::invalid_argument("DarkVehicleDetector: bad downsample factor");
  if (config_.window_stride <= 0)
    throw std::invalid_argument("DarkVehicleDetector: bad window stride");
  if (!config_.closing.valid())
    throw std::invalid_argument("DarkVehicleDetector: bad closing element");
}

img::ImageU8 DarkVehicleDetector::preprocess(const img::RgbImage& frame) const {
  const obs::ScopedSpan span("threshold_morphology", "detect/dark");
  // Fig. 4: split chroma & luminance, threshold each, AND, and downsample
  // with OR pooling in one pass: a lit pixel anywhere in a block keeps the
  // block lit, so distant 1-2 px taillights survive the resolution drop.
  img::ImageU8 mask = img::taillight_roi_mask(frame, config_.threshold,
                                              config_.downsample_factor);
  if (config_.median_prefilter) mask = img::median3x3(mask);
  return img::close(mask, config_.closing);
}

std::vector<int> dark_window_anchors(int begin, int end, int win, int stride) {
  std::vector<int> anchors;
  if (win <= 0 || stride <= 0 || end - begin < win) return anchors;
  const int last = end - win;
  for (int pos = begin; pos < last; pos += stride) anchors.push_back(pos);
  anchors.push_back(last);  // clamp: the edge window is always scanned
  return anchors;
}

std::vector<TaillightDetection> DarkVehicleDetector::detect_taillights(
    const img::ImageU8& binary) const {
  const obs::ScopedSpan span("dbn_scan", "detect/dark");
  const std::vector<img::Blob> blobs =
      img::find_blobs(binary, img::Connectivity::Eight, config_.min_blob_area);

  constexpr int kWin = data::kTaillightWindow;
  constexpr std::size_t kInputs = data::kTaillightInputs;
  constexpr std::size_t kClasses = data::kTaillightClasses;
  const int n_blobs = static_cast<int>(blobs.size());

  // Tasks run either inline (no pool) or cooperatively on the shared pool;
  // every task writes an index-addressed disjoint range, and the scatter
  // step walks blobs in canonical order — identical detections for every
  // pool size.
  const auto run_tasks = [this](int count, const std::function<void(int)>& fn) {
    if (pool_ != nullptr && count > 1) {
      pool_->run_indexed(count, fn);
    } else {
      for (int i = 0; i < count; ++i) fn(i);
    }
  };
  // --- gather: plan each blob's windows, pack them into one patch matrix --
  std::vector<BlobWindows> plans(blobs.size());
  std::size_t total_windows = 0;
  {
    const obs::ScopedSpan gather_span("dark_gather", "detect/dark",
                                      {{"blobs", n_blobs}});
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      // Slide the 9x9 window (stride 2) over the blob's neighbourhood; the
      // posteriors of all covering windows are averaged. Averaging (rather
      // than taking the single most confident window) is what lets the DBN
      // reject elongated streaks: a window clipping the *end* of a streak
      // looks like a small lamp, but most windows along the streak see the
      // streak.
      const img::Rect region = img::inflated(blobs[i].bbox, kWin / 2);
      plans[i].xs = dark_window_anchors(region.x, region.right(), kWin,
                                        config_.window_stride);
      plans[i].ys = dark_window_anchors(region.y, region.bottom(), kWin,
                                        config_.window_stride);
      plans[i].first = total_windows;
      total_windows += plans[i].count();
    }
  }
  // --- pack + batch-score: one pooled pass over row chunks ----------------
  // Per-thread frame buffers: the packed patch matrix and its posteriors are
  // reused across frames, so the warm scan allocates nothing. Pool tasks
  // write the *caller's* buffers through the captured references; a pool
  // caller only ever helps with its own batch, so the buffers cannot be
  // resized while tasks hold them.
  static thread_local std::vector<float> patches_tls, posteriors_tls;
  std::vector<float>& patches = patches_tls;
  std::vector<float>& posteriors = posteriors_tls;
  patches.resize(total_windows * kInputs);
  posteriors.resize(total_windows * kClasses);

  std::size_t chunk =
      config_.batch_windows > 0 ? static_cast<std::size_t>(config_.batch_windows)
                                : total_windows;
  if (pool_ != nullptr && total_windows > 0) {
    // Split small frames into ~2 chunks per scoring thread so the pool has
    // work to steal; chunking never changes results (each posterior row is
    // bit-exact regardless of which chunk computes it), only the activation
    // working-set size.
    const std::size_t lanes =
        2 * (static_cast<std::size_t>(pool_->thread_count()) + 1);
    const std::size_t target = (total_windows + lanes - 1) / lanes;
    // At least 32 windows per chunk, but never past the batch_windows cap
    // (std::clamp with a cap below 32 would be undefined).
    chunk = std::min(std::max(target, std::size_t{32}), chunk);
  }
  const int n_chunks =
      total_windows == 0 ? 0
                         : static_cast<int>((total_windows + chunk - 1) / chunk);
  {
    // One span covers the whole pack + score pass: chunks run back to back
    // (or concurrently on the pool), so per-chunk spans would only add
    // telemetry cost to a loop whose chunks are tens of microseconds.
    const obs::ScopedSpan batch_span(
        "dbn_batch_forward", "detect/dark",
        {{"windows", static_cast<std::int64_t>(total_windows)},
         {"chunks", static_cast<std::int64_t>(n_chunks)}});
    run_tasks(n_chunks, [&](int c) {
      const std::size_t begin = static_cast<std::size_t>(c) * chunk;
      const std::size_t rows = std::min(chunk, total_windows - begin);
      // Pack this chunk's windows, walking the (sorted, disjoint) blob row
      // ranges that overlap [begin, begin + rows).
      std::size_t bi = 0;
      for (std::size_t row = begin; row < begin + rows; ++row) {
        while (plans[bi].first + plans[bi].count() <= row) ++bi;
        const BlobWindows& plan = plans[bi];
        const std::size_t local = row - plan.first;
        const std::size_t nx = plan.xs.size();
        pack_window(binary, plan.xs[local % nx], plan.ys[local / nx],
                    {patches.data() + row * kInputs, kInputs});
      }
      // One scratch per scoring thread, reused across chunks and frames: the
      // batched forward is allocation-free once the thread is warm.
      static thread_local ml::DbnBatchScratch scratch;
      dbn_.posterior_batch({patches.data() + begin * kInputs, rows * kInputs},
                           static_cast<int>(rows), scratch,
                           {posteriors.data() + begin * kClasses,
                            rows * kClasses});
    });
  }

  // --- scatter: per-blob posterior aggregation, canonical blob order ------
  std::vector<TaillightDetection> out;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    TaillightDetection det;
    if (aggregate_blob(blobs[i],
                       {posteriors.data() + plans[i].first * kClasses,
                        plans[i].count() * kClasses},
                       config_.dbn_min_confidence, det))
      out.push_back(det);
  }

  // Resolved once: a by-name lookup takes the registry's one mutex, which
  // every scrape and telemetry sample also takes to walk the series (the
  // registry never drops a series).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  static obs::Counter& blob_count = registry.counter("detect.dark.blobs");
  static obs::Counter& windows = registry.counter("detect.dark.batch_windows");
  static obs::Counter& taillights = registry.counter("detect.dark.taillights");
  blob_count.inc(blobs.size());
  windows.inc(total_windows);
  taillights.inc(out.size());
  return out;
}

std::vector<TaillightDetection> DarkVehicleDetector::detect_taillights_reference(
    const img::ImageU8& binary) const {
  const obs::ScopedSpan span("dbn_scan_reference", "detect/dark");
  std::vector<TaillightDetection> out;
  const std::vector<img::Blob> blobs =
      img::find_blobs(binary, img::Connectivity::Eight, config_.min_blob_area);

  constexpr int kWin = data::kTaillightWindow;
  std::vector<float> input(data::kTaillightInputs);
  std::vector<float> window_posteriors;

  for (const img::Blob& blob : blobs) {
    const img::Rect region = img::inflated(blob.bbox, kWin / 2);
    window_posteriors.clear();
    for (const int wy : dark_window_anchors(region.y, region.bottom(), kWin,
                                            config_.window_stride)) {
      for (const int wx : dark_window_anchors(region.x, region.right(), kWin,
                                              config_.window_stride)) {
        pack_window(binary, wx, wy, input);
        const std::vector<float> post = dbn_.posterior(input);
        window_posteriors.insert(window_posteriors.end(), post.begin(),
                                 post.end());
      }
    }
    TaillightDetection det;
    if (aggregate_blob(blob, window_posteriors, config_.dbn_min_confidence,
                       det))
      out.push_back(det);
  }
  return out;
}

std::vector<float> DarkVehicleDetector::pair_features(
    const TaillightDetection& a, const TaillightDetection& b) {
  const double dx = static_cast<double>(b.center.x) - a.center.x;
  const double dy = std::abs(static_cast<double>(b.center.y) - a.center.y);
  const double size_a = std::sqrt(static_cast<double>(std::max<long long>(a.blob_area, 1)));
  const double size_b = std::sqrt(static_cast<double>(std::max<long long>(b.blob_area, 1)));
  const double ratio = std::min(size_a, size_b) / std::max(size_a, size_b);
  const double same_class = a.cls == b.cls ? 1.0 : 0.0;
  return {static_cast<float>(dx / 100.0), static_cast<float>(dy / 10.0),
          static_cast<float>(size_a / 10.0), static_cast<float>(size_b / 10.0),
          static_cast<float>(ratio), static_cast<float>(same_class)};
}

std::vector<Detection> DarkVehicleDetector::pair_taillights(
    const std::vector<TaillightDetection>& lights) const {
  const obs::ScopedSpan span("pairing", "detect/dark");
  std::vector<Detection> pairs;
  for (std::size_t i = 0; i < lights.size(); ++i) {
    for (std::size_t j = 0; j < lights.size(); ++j) {
      if (i == j) continue;
      const TaillightDetection& left = lights[i];
      const TaillightDetection& right = lights[j];
      const int dx = right.center.x - left.center.x;
      const int dy = std::abs(right.center.y - left.center.y);
      // Geometric gate: the paper restricts matching to "a particular region
      // around each detected taillight".
      if (dx < config_.pair_min_dx || dx > config_.pair_max_dx ||
          dy > config_.pair_max_dy)
        continue;

      const std::vector<float> feat = pair_features(left, right);
      const double score = pairing_svm_.decision(feat);
      if (score < config_.pair_svm_threshold) continue;

      // Vehicle box inferred from taillight geometry: lights sit at about
      // 2/3 of the body height, inset ~10% from each side.
      const int width = static_cast<int>(std::lround(dx * 1.3));
      const int height = static_cast<int>(std::lround(width * 0.8));
      const int cx = (left.center.x + right.center.x) / 2;
      const int light_y = (left.center.y + right.center.y) / 2;
      const img::Rect box{cx - width / 2,
                          light_y - (2 * height) / 3, width, height};
      pairs.push_back({box, score, kClassVehicle});
    }
  }
  return non_max_suppression(std::move(pairs), config_.nms_iou);
}

std::vector<Detection> DarkVehicleDetector::detect(
    const img::RgbImage& frame) const {
  const obs::ScopedSpan span("dark_detect", "detect/dark");
  const img::ImageU8 mask = preprocess(frame);
  const std::vector<TaillightDetection> lights = detect_taillights(mask);
  std::vector<Detection> dets = pair_taillights(lights);
  const double f = config_.downsample_factor;
  for (Detection& d : dets) d.box = img::scaled(d.box, f, f);
  return dets;
}

}  // namespace avd::det
