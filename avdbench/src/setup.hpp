// Shared pieces of the three workloads: command-line options, model
// training, input seeds, detection equality and the traced per-layer
// decomposition of one frame's HOG and dark paths.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "avd/core/adaptive_system.hpp"
#include "avd/detect/hog_svm_detector.hpp"
#include "ledger.hpp"

namespace avdbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< where the traced run writes its spans ("" = not)
};

/// Set-ups repeated per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Runs `set_up` kSetupRepeats times, releasing each result before timing the
/// next, reports their median as setup_s and returns the last one.
template <typename SetUp>
auto repeated_set_up(Report& report, SetUp&& set_up) {
  std::vector<double> seconds;
  std::optional<decltype(set_up())> rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();  // members die in reverse order: users before what they use
    const Clock::time_point t0 = Clock::now();
    rig.emplace(set_up());
    seconds.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  report.set("setup_s", median(seconds), "s", seconds.size());
  return std::move(*rig);
}

/// Models trained with the default TrainingBudget (the system, not the
/// input: identical for every workload seed).
[[nodiscard]] avd::core::SystemModels train_models();

/// Input seed of one generated sequence: a pure function of the workload
/// seed and a small stream/phase tag.
[[nodiscard]] std::uint64_t input_seed(std::uint64_t workload_seed,
                                       std::uint64_t tag);

/// Bit-for-bit equality of two detection lists (boxes, scores, classes).
[[nodiscard]] bool same_detections(const std::vector<avd::det::Detection>& a,
                                   const std::vector<avd::det::Detection>& b);

/// Ground-truth vehicle boxes of a scene.
[[nodiscard]] std::vector<avd::img::Rect> vehicle_truth(
    const avd::data::SceneSpec& scene);

/// Recall/precision accumulator over MatchResults.
struct Quality {
  std::uint64_t tp = 0, fn = 0, fp = 0;
  void add(const avd::det::MatchResult& m) {
    tp += static_cast<std::uint64_t>(m.true_positives);
    fn += static_cast<std::uint64_t>(m.false_negatives);
    fp += static_cast<std::uint64_t>(m.false_positives);
  }
  /// Sets vehicle_recall / vehicle_precision and gates that both exist.
  void report(Report& report) const;
};

/// Registry counters the per-layer table reads, as a snapshot.
struct ScanCounters {
  std::uint64_t blocks = 0, windows = 0, raw = 0, dbn_windows = 0;
  [[nodiscard]] static ScanCounters read();
  [[nodiscard]] ScanCounters minus(const ScanCounters& before) const {
    return {blocks - before.blocks, windows - before.windows, raw - before.raw,
            dbn_windows - before.dbn_windows};
  }
  [[nodiscard]] ScanCounters plus(const ScanCounters& more) const {
    return {blocks + more.blocks, windows + more.windows, raw + more.raw,
            dbn_windows + more.dbn_windows};
  }
};

/// Layer names of the traced decomposition, shared by every workload.
namespace layer {
inline const std::string kRender = "datasets.render_ms";
inline const std::string kGrey = "image.grey_ms";
inline const std::string kResize = "image.pyramid_resize_ms";
inline const std::string kCells = "hog.cell_grid_ms";
inline const std::string kBlocks = "hog.block_grid_ms";
inline const std::string kScan1t = "detect.multiscale_1t_ms";
inline const std::string kYcbcr = "image.ycbcr_ms";
inline const std::string kMask = "image.taillight_mask_ms";
inline const std::string kDownsample = "image.downsample_ms";
inline const std::string kClosing = "image.closing_ms";
inline const std::string kBlobs = "image.blobs_ms";
inline const std::string kTaillights = "detect.dark_taillights_ms";
inline const std::string kPair = "detect.pair_ms";
inline const std::string kMatch = "detect.match_ms";
inline const std::string kControl = "core.control_step_us";
inline const std::string kEvaluate = "core.evaluate_frame_ms";
}  // namespace layer

/// One single-threaded HOG+SVM scan of `gray`, split into its public layer
/// calls: per pyramid level img::resize_bilinear, hog::compute_cell_grid and
/// hog::compute_block_grid, then the whole det::detect_multiscale (no pool)
/// from which ml.svm_score_ms is derived.
void trace_hog_scan(Ledger& ledger, int frame, const avd::img::ImageU8& gray,
                    const avd::det::HogSvmModel& model,
                    const avd::det::SlidingWindowParams& params);

/// The dark detector's stages on one RGB frame, each timed as its own layer
/// call (the same sequence DarkVehicleDetector::preprocess/detect run).
void trace_dark_path(Ledger& ledger, int frame, const avd::img::RgbImage& rgb,
                     const avd::det::DarkVehicleDetector& dark);

/// The control plane stepped over `metas` in order (core.control_step_us,
/// soc.reconfigs and the modelled soc.reconfig_sim_ms), then evaluate_frame
/// on the frames at `evaluate` (core.evaluate_frame_ms, their median).
void trace_control(const avd::core::AdaptiveSystem& system,
                   const std::vector<avd::data::SequenceFrame>& metas,
                   const std::vector<int>& evaluate, Report& report,
                   Ledger& ledger);

/// Per-layer metrics every workload reports from a decomposition over
/// `frames` frames: the layer times, the derived SVM time and the per-frame
/// counter deltas.
void report_layers(Report& report, const Ledger& ledger, int frames,
                   const ScanCounters& counts);

/// Writes the ledger's spans when opts.spans_out is set.
void write_spans(const Options& opts, const Ledger& ledger);

}  // namespace avdbench
