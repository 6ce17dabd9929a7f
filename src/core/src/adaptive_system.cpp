#include "avd/core/adaptive_system.hpp"

#include <algorithm>

#include "avd/detect/multi_model_scan.hpp"
#include "avd/image/color.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/trace.hpp"

namespace avd::core {
namespace {

/// render_scene under its own span, so the tracer and /profilez attribute
/// render time instead of folding it into the caller's self-time.
img::RgbImage traced_render(const data::SceneSpec& scene) {
  const obs::ScopedSpan span("render_scene", "core/detect");
  return data::render_scene(scene);
}

/// rgb_to_gray under its own span (the ledger's image.grey layer).
img::ImageU8 traced_grey(const img::RgbImage& frame) {
  const obs::ScopedSpan span("grey", "core/detect");
  return img::rgb_to_gray(frame);
}

/// match_detections against the truth objects' bodies, under its own span
/// (the ledger's detect.match layer).
template <class Spec>
det::MatchResult traced_match(const std::vector<det::Detection>& dets,
                              const std::vector<Spec>& truth, double iou) {
  const obs::ScopedSpan span("match", "core/detect");
  std::vector<img::Rect> bodies;
  for (const Spec& t : truth) bodies.push_back(t.body);
  return det::match_detections(dets, bodies, iou);
}

}  // namespace

int AdaptiveRunReport::dropped_vehicle_frames() const {
  return static_cast<int>(std::count_if(
      frames.begin(), frames.end(),
      [](const AdaptiveFrameReport& f) { return !f.vehicle_processed; }));
}

int AdaptiveRunReport::pedestrian_frames_processed() const {
  return static_cast<int>(std::count_if(
      frames.begin(), frames.end(),
      [](const AdaptiveFrameReport& f) { return f.pedestrian_processed; }));
}

double AdaptiveRunReport::vehicle_availability() const {
  if (frames.empty()) return 0.0;
  return 1.0 - static_cast<double>(dropped_vehicle_frames()) /
                   static_cast<double>(frames.size());
}

std::vector<ConditionSummary> AdaptiveRunReport::per_condition() const {
  std::vector<ConditionSummary> out(3);
  out[0].condition = data::LightingCondition::Day;
  out[1].condition = data::LightingCondition::Dusk;
  out[2].condition = data::LightingCondition::Dark;
  for (const AdaptiveFrameReport& f : frames) {
    ConditionSummary& s = out[static_cast<std::size_t>(f.sensed)];
    ++s.frames;
    s.dropped += !f.vehicle_processed;
    s.vehicle_match.true_positives += f.vehicle_match.true_positives;
    s.vehicle_match.false_negatives += f.vehicle_match.false_negatives;
    s.vehicle_match.false_positives += f.vehicle_match.false_positives;
  }
  return out;
}

det::MatchResult AdaptiveRunReport::total_vehicle_match() const {
  det::MatchResult total;
  for (const AdaptiveFrameReport& f : frames) {
    total.true_positives += f.vehicle_match.true_positives;
    total.false_negatives += f.vehicle_match.false_negatives;
    total.false_positives += f.vehicle_match.false_positives;
  }
  return total;
}

AdaptiveSystem::AdaptiveSystem(SystemModels models, AdaptiveSystemConfig config)
    : models_(std::move(models)),
      config_(config),
      platform_(soc::default_platform()) {
  // Both detector front ends share the one scan pool: the HOG scanner takes
  // it per call (sliding.pool), the dark detector's batched gather/score
  // tasks through set_scan_pool. Identical detections for every pool size
  // either way.
  models_.dark.set_scan_pool(config_.sliding.pool);
  const soc::DeviceResources device;
  const soc::ModuleResources partition = soc::floorplan_partition(
      soc::dark_blocks(), device, config_.floorplan);
  // Countryside is a configuration only when the animal model exists.
  std::vector<std::string> names{"day-dusk", "dark"};
  if (models_.has_animal_model()) names.emplace_back("countryside");
  for (const std::string& name : names)
    bitstreams_.push_back(soc::make_partial_bitstream(name, partition, device,
                                                      config_.bitstream));
}

FrameDetections AdaptiveSystem::detect_frame(
    const img::RgbImage& frame, std::string_view config,
    data::LightingCondition sensed,
    const det::SlidingWindowParams& sliding) const {
  FrameDetections out;
  if (config == "dark") {
    out.vehicles = models_.dark.detect(frame);
    return out;
  }
  // Countryside scores the animal classifier behind the vehicle model's HOG
  // front end: the software mirror of soc::countryside_blocks()'s sharing.
  const bool animals = config == "countryside" && models_.has_animal_model();
  const det::HogSvmModel* set[] = {&models_.vehicle_model_for(sensed),
                                   &models_.animal};
  const img::ImageU8 grey = traced_grey(frame);
  const std::vector<det::Detection> all = det::detect_multiscale_multi(
      grey, std::span(set, animals ? 2 : 1), sliding);
  if (animals) out.animals.emplace();
  for (const det::Detection& d : all)
    (d.class_id == det::kClassAnimal ? *out.animals : out.vehicles)
        .push_back(d);
  return out;
}

std::vector<det::Detection> AdaptiveSystem::detect_vehicles(
    const img::RgbImage& frame, data::LightingCondition condition) const {
  return detect_frame(frame, config_for(condition), condition,
                      config_.sliding)
      .vehicles;
}

std::vector<det::Detection> AdaptiveSystem::detect_pedestrians(
    const img::ImageU8& gray) const {
  return det::detect_multiscale(gray, models_.pedestrian, config_.sliding);
}

AdaptiveSystem::StepSession::StepSession(const AdaptiveSystem& system)
    : system_(&system),
      controller_(system.platform_, system.config_.method),
      scheduler_(system.config_.scheduler),
      classifier_(system.config_.classifier) {
  for (const soc::PartialBitstream& bits : system.bitstreams_)
    controller_.stage(bits);
}

const soc::EventLog& AdaptiveSystem::StepSession::log() const {
  return controller_.log();
}

ControlStep AdaptiveSystem::StepSession::control_step(
    const data::SequenceFrame& meta) {
  const obs::ScopedSpan span("control_step", "core/control");
  const AdaptiveSystemConfig& config = system_->config_;
  const int i = next_index_++;

  // Sensor trace -> condition (the paper's external light signal, or the
  // image-derived estimate).
  ControlStep step;
  step.index = i;
  step.light_level =
      config.use_image_light_estimate
          ? LightingClassifier::estimate_light_level(
                traced_grey(traced_render(meta.scene)))
          : meta.light_level;
  step.sensed = classifier_.update(step.light_level);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  // Resolved once: a by-name lookup takes the registry's one mutex, which
  // telemetry rollups hold for milliseconds, and every served frame's
  // control step passes here (the registry never drops a series).
  static obs::Counter& control_steps = registry.counter("core.control_steps");
  control_steps.inc();
  if (step.sensed != prev_sensed_) registry.counter("core.mode_switches").inc();
  prev_sensed_ = step.sensed;

  // Condition -> reconfiguration decision. Countryside selection only
  // applies when the animal model exists.
  const std::string wanted = system_->models_.has_animal_model()
                                 ? config_for(step.sensed, meta.road)
                                 : config_for(step.sensed);
  const soc::TimePoint now = scheduler_.frame_time(i);
  if (wanted != loaded_ && now >= busy_until_) {
    // The engine drains its in-flight frame before the partition is opened.
    const soc::Duration drain =
        soc::day_dusk_pipeline_model().frame_time(soc::kHdtvFrame);
    const soc::TimePoint start = now + drain;
    const soc::ReconfigResult result = controller_.reconfigure(
        start, *std::find_if(system_->bitstreams_.begin(),
                             system_->bitstreams_.end(),
                             [&](const soc::PartialBitstream& b) {
                               return b.config_name == wanted;
                             }));
    scheduler_.add_reconfig_window(start, result.duration(), wanted);
    reconfigs_.push_back(result);
    busy_until_ = result.end;
    loaded_ = wanted;
    step.reconfig_triggered = true;
    registry.counter("core.reconfigs_triggered").inc();
  }

  // Schedule decision. A window always opens strictly after the frame that
  // triggered it, so frame i's record is final once frames 0..i have been
  // stepped (FrameScheduler::record_at documents the invariant).
  step.record = scheduler_.record_at(i, "day-dusk");
  return step;
}

std::optional<FrameDetections> AdaptiveSystem::scan_frame(
    const ControlStep& step, const data::SequenceFrame& meta,
    const det::SlidingWindowParams& sliding) const {
  if (!scans(step)) return std::nullopt;
  // The *loaded* configuration picks the detector, not the sensed
  // condition: frames between a condition change and the end of the
  // reconfiguration still run the previous pipeline.
  return detect_frame(traced_render(meta.scene), step.record.vehicle_config,
                      step.sensed, sliding);
}

AdaptiveFrameReport AdaptiveSystem::report_frame(
    const ControlStep& step, const data::SequenceFrame& meta,
    const std::optional<FrameDetections>& boxes) const {
  AdaptiveFrameReport fr;
  fr.index = step.index;
  fr.light_level = step.light_level;
  fr.sensed = step.sensed;
  fr.active_config = step.record.vehicle_config;
  fr.vehicle_processed = step.record.vehicle_processed;
  fr.pedestrian_processed = step.record.pedestrian_processed;
  fr.reconfig_triggered = step.reconfig_triggered;
  fr.vehicles_truth = static_cast<int>(meta.scene.vehicles.size());
  fr.animals_truth = static_cast<int>(meta.scene.animals.size());
  if (!boxes || !scans(step)) return fr;
  fr.vehicle_match =
      traced_match(boxes->vehicles, meta.scene.vehicles, config_.match_iou);
  if (boxes->animals)
    fr.animal_match =
        traced_match(*boxes->animals, meta.scene.animals, config_.match_iou);
  return fr;
}

AdaptiveFrameReport AdaptiveSystem::evaluate_frame(
    const ControlStep& step, const data::SequenceFrame& meta) const {
  const obs::ScopedSpan span("evaluate_frame", "core/detect");
  return report_frame(step, meta, scan_frame(step, meta, config_.sliding));
}

AdaptiveRunReport AdaptiveSystem::run(const data::DriveSequence& sequence) const {
  // The batch path is the streaming path driven sequentially: each frame's
  // control step, then its pixel-level pass (a step's record is final once
  // it returns). Keeping a single code path is what makes the runtime's
  // per-stream determinism guarantee checkable against this function.
  AdaptiveRunReport report;
  StepSession session = begin_session();
  report.frames.reserve(static_cast<std::size_t>(sequence.frame_count()));
  for (int i = 0; i < sequence.frame_count(); ++i) {
    const data::SequenceFrame meta = sequence.frame(i);
    report.frames.push_back(evaluate_frame(session.control_step(meta), meta));
  }

  report.reconfigs = session.reconfigs();
  report.log = session.log();
  return report;
}

}  // namespace avd::core
