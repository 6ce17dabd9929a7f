#include "setup.hpp"

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "avd/hog/block_grid.hpp"
#include "avd/image/blobs.hpp"
#include "avd/image/color.hpp"
#include "avd/image/filter.hpp"
#include "avd/image/morphology.hpp"
#include "avd/image/resize.hpp"
#include "avd/image/threshold.hpp"
#include "avd/obs/metrics.hpp"

namespace avdbench {

namespace img = avd::img;
namespace det = avd::det;

avd::core::SystemModels train_models() {
  return avd::core::build_system_models(avd::core::TrainingBudget{});
}

std::uint64_t input_seed(std::uint64_t workload_seed, std::uint64_t tag) {
  // splitmix64 finaliser over (seed, tag): nearby seeds give unrelated inputs.
  std::uint64_t z = workload_seed * 0x9E3779B97F4A7C15ull + tag + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool same_detections(const std::vector<det::Detection>& a,
                     const std::vector<det::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const det::Detection& x = a[i];
    const det::Detection& y = b[i];
    if (x.box.x != y.box.x || x.box.y != y.box.y ||
        x.box.width != y.box.width || x.box.height != y.box.height ||
        x.score != y.score || x.class_id != y.class_id)
      return false;
  }
  return true;
}

std::vector<img::Rect> vehicle_truth(const avd::data::SceneSpec& scene) {
  std::vector<img::Rect> truth;
  for (const avd::data::VehicleSpec& v : scene.vehicles)
    truth.push_back(v.body);
  return truth;
}

void Quality::report(Report& report) const {
  const std::uint64_t truths = tp + fn;
  const std::uint64_t found = tp + fp;
  report.gate("quality_defined", truths > 0 && found > 0 && tp > 0);
  report.set("detect.vehicle_recall",
             truths > 0 ? static_cast<double>(tp) / static_cast<double>(truths)
                        : 0.0,
             "ratio", truths);
  report.set("detect.vehicle_precision",
             found > 0 ? static_cast<double>(tp) / static_cast<double>(found)
                       : 0.0,
             "ratio", found);
}

ScanCounters ScanCounters::read() {
  const avd::obs::MetricsRegistry& r = avd::obs::MetricsRegistry::global();
  const avd::obs::MetricsSnapshot s = r.snapshot();
  return {s.counter("detect.hogsvm.blocks_normalised"),
          s.counter("detect.hogsvm.windows_scanned"),
          s.counter("detect.hogsvm.raw_detections"),
          s.counter("detect.dark.batch_windows")};
}

void trace_hog_scan(Ledger& ledger, int frame, const img::ImageU8& gray,
                    const det::HogSvmModel& model,
                    const det::SlidingWindowParams& params) {
  // The pyramid schedule detect_multiscale documents: shrink by scale_step
  // until the model's window no longer fits, at most max_levels levels.
  double scale = 1.0;
  for (int level = 0; level < params.max_levels;
       ++level, scale *= params.scale_step) {
    const img::Size size{static_cast<int>(std::lround(gray.width() / scale)),
                         static_cast<int>(std::lround(gray.height() / scale))};
    if (size.width < model.window.width || size.height < model.window.height)
      break;
    const img::ImageU8 scaled =
        level == 0 ? gray : ledger.time(layer::kResize, frame, [&] {
          return img::resize_bilinear(gray, size);
        });
    const avd::hog::CellGrid cells = ledger.time(layer::kCells, frame, [&] {
      return avd::hog::compute_cell_grid(scaled, model.hog);
    });
    (void)ledger.time(layer::kBlocks, frame, [&] {
      return avd::hog::compute_block_grid(cells, model.hog);
    });
  }
  det::SlidingWindowParams single = params;
  single.pool = nullptr;
  (void)ledger.time(layer::kScan1t, frame, [&] {
    return det::detect_multiscale(gray, model, single);
  });
}

void trace_dark_path(Ledger& ledger, int frame, const img::RgbImage& rgb,
                     const det::DarkVehicleDetector& dark) {
  const det::DarkDetectorConfig& c = dark.config();
  const img::YcbcrImage ycc =
      ledger.time(layer::kYcbcr, frame, [&] { return img::rgb_to_ycbcr(rgb); });
  img::ImageU8 mask = ledger.time(layer::kMask, frame, [&] {
    return img::taillight_roi_mask(ycc, c.threshold);
  });
  if (c.downsample_factor > 1) {
    const int f = c.downsample_factor;
    mask = ledger.time(layer::kDownsample, frame, [&] {
      // preprocess(): OR pooling when the frame divides evenly, otherwise
      // the nearest-neighbour fallback (640x360 is not divisible by 3).
      return mask.width() % f == 0 && mask.height() % f == 0
                 ? img::downsample_or(mask, f)
                 : img::resize_nearest(mask, {std::max(1, mask.width() / f),
                                              std::max(1, mask.height() / f)});
    });
  }
  if (c.median_prefilter) mask = img::median3x3(mask);
  const img::ImageU8 closed = ledger.time(
      layer::kClosing, frame, [&] { return img::close(mask, c.closing); });
  (void)ledger.time(layer::kBlobs, frame, [&] {
    return img::find_blobs(closed, img::Connectivity::Eight, c.min_blob_area);
  });
  const std::vector<det::TaillightDetection> lights =
      ledger.time(layer::kTaillights, frame,
                  [&] { return dark.detect_taillights(closed); });
  (void)ledger.time(layer::kPair, frame,
                    [&] { return dark.pair_taillights(lights); });
}

void trace_control(const avd::core::AdaptiveSystem& system,
                   const std::vector<avd::data::SequenceFrame>& metas,
                   const std::vector<int>& evaluate, Report& report,
                   Ledger& ledger) {
  avd::core::AdaptiveSystem::StepSession session = system.begin_session();
  std::vector<avd::core::ControlStep> steps;
  for (std::size_t i = 0; i < metas.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    steps.push_back(session.control_step(metas[i]));
    ledger.add(layer::kControl, static_cast<int>(i),
               ms_between(t0, Clock::now()) * 1e3);
  }
  report.set(layer::kControl,
             ledger.per_frame(layer::kControl, static_cast<int>(metas.size())),
             "us", metas.size());
  const std::vector<avd::soc::ReconfigResult>& reconfigs = session.reconfigs();
  double sim_ms = 0.0;
  for (const avd::soc::ReconfigResult& r : reconfigs)
    sim_ms += static_cast<double>(r.duration().ps) / 1e9;
  report.set("soc.reconfigs", static_cast<double>(reconfigs.size()), "count",
             metas.size());
  // Modelled (simulated-clock) time, not host time: reported, never bounded.
  const double n_reconfigs = static_cast<double>(reconfigs.size());
  report.set("soc.reconfig_sim_ms",
             n_reconfigs > 0 ? sim_ms / n_reconfigs : 0.0, "ms",
             reconfigs.size());
  for (const int i : evaluate) {
    const auto u = static_cast<std::size_t>(i);
    (void)ledger.time(layer::kEvaluate, i, [&] {
      return system.evaluate_frame(steps[u], metas[u]);
    });
  }
  report.set(layer::kEvaluate, median(ledger.samples(layer::kEvaluate)), "ms",
             evaluate.size());
}

void report_layers(Report& report, const Ledger& ledger, int frames,
                   const ScanCounters& counts) {
  for (const std::string* name :
       {&layer::kGrey, &layer::kResize, &layer::kCells, &layer::kBlocks,
        &layer::kYcbcr, &layer::kMask, &layer::kDownsample, &layer::kClosing,
        &layer::kBlobs, &layer::kTaillights, &layer::kPair, &layer::kMatch})
    report.set(*name, ledger.per_frame(*name, frames), "ms",
               ledger.samples(*name).size());
  // Derived: the single-threaded scan minus its measured front end leaves
  // window scoring (plus NMS and the block copy it scores from).
  const double front = ledger.per_frame(layer::kResize, frames) +
                       ledger.per_frame(layer::kCells, frames) +
                       ledger.per_frame(layer::kBlocks, frames);
  report.set("ml.svm_score_ms",
             ledger.per_frame(layer::kScan1t, frames) - front, "ms",
             ledger.samples(layer::kScan1t).size());
  const double n = frames > 0 ? static_cast<double>(frames) : 1.0;
  const auto per_frame = [&](std::uint64_t v) {
    return static_cast<double>(v) / n;
  };
  const auto uframes = static_cast<std::size_t>(frames);
  report.set("hog.blocks_normalised_per_frame", per_frame(counts.blocks),
             "count", uframes);
  report.set("detect.windows_scanned_per_frame", per_frame(counts.windows),
             "count", uframes);
  report.set("detect.raw_detections_per_frame", per_frame(counts.raw), "count",
             uframes);
  report.set("ml.dbn_windows_per_frame", per_frame(counts.dbn_windows),
             "count", uframes);
}

void write_spans(const Options& opts, const Ledger& ledger) {
  if (opts.spans_out.empty()) return;
  std::ofstream out(opts.spans_out);
  if (!out) throw std::runtime_error("cannot write " + opts.spans_out);
  out << spans_to_json(ledger);
}

}  // namespace avdbench
