// HOG+SVM detector: the day/dusk vehicle pipeline (paper Figs. 1-2) and the
// static-partition pedestrian pipeline (§IV-A, based on [17]).
//
// Mirrors the paper's structure: a trained-model artefact (produced offline
// by the LibLINEAR-equivalent trainer) plus a three-stage detection pipeline
// (HOG descriptor -> normaliser -> SVM classifier).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "avd/datasets/patches.hpp"
#include "avd/detect/detection.hpp"
#include "avd/hog/hog.hpp"
#include "avd/ml/metrics.hpp"
#include "avd/ml/svm.hpp"

namespace avd::runtime {
class ThreadPool;  // avd/runtime/thread_pool.hpp (avd_runtime_pool target)
}

namespace avd::det {

/// A complete trained HOG+SVM model: feature parameters, window geometry and
/// the linear classifier. Matches one "Trained Model" block RAM of Fig. 2.
struct HogSvmModel {
  std::string name;          ///< "day", "dusk", "combined", "pedestrian", ...
  hog::HogParams hog;
  img::Size window{64, 64};  ///< classification window in pixels
  ml::LinearSvm svm;
  int class_id = kClassVehicle;

  /// Decision value of one window-sized grayscale patch.
  [[nodiscard]] double decision(const img::ImageU8& patch) const;
  /// Binary classification of one patch (decision >= 0).
  [[nodiscard]] bool classify(const img::ImageU8& patch) const;

  void save(std::ostream& out) const;
  static HogSvmModel load(std::istream& in);
};

struct HogSvmTrainOptions {
  ml::SvmTrainParams svm;
  hog::HogParams hog;
  int class_id = kClassVehicle;
};

/// Train a model from labelled patches (all patches must equal the window
/// size implied by the dataset's first patch).
[[nodiscard]] HogSvmModel train_hog_svm(const data::PatchDataset& dataset,
                                        std::string name,
                                        const HogSvmTrainOptions& opts = {});

/// Patch-level evaluation, the Table I protocol: every positive patch scored
/// as TP/FN, every negative patch as TN/FP.
[[nodiscard]] ml::BinaryCounts evaluate_patches(const HogSvmModel& model,
                                                const data::PatchDataset& dataset);

/// Multi-scale sliding-window detection parameters.
struct SlidingWindowParams {
  double scale_step = 1.25;     ///< pyramid ratio between levels (> 1)
  int max_levels = 6;           ///< >= 1
  int stride_cells = 1;         ///< window step in cells (>= 1)
  double score_threshold = 0.3; ///< min decision value to emit a detection
  double nms_iou = 0.4;
  /// Scan parallelism: pyramid levels are dispatched onto this pool, one
  /// task per level, each streaming its blocks through its own ring of
  /// block rows (nullptr = scan on the calling thread). Detections are
  /// identical for every pool size — tasks merge in canonical scan order,
  /// never in completion order. Share ONE pool across every scanning call site (the
  /// runtime's detect workers included, StreamServerConfig::scan_pool); the
  /// scanner never spawns threads of its own. Not owned.
  runtime::ThreadPool* pool = nullptr;
};

/// Scan a full frame at multiple scales with the model's window; returns
/// NMS-filtered detections in original frame coordinates.
[[nodiscard]] std::vector<Detection> detect_multiscale(
    const img::ImageU8& frame, const HogSvmModel& model,
    const SlidingWindowParams& params = {});

}  // namespace avd::det
