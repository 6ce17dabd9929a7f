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

/// match_detections under its own span (the ledger's detect.match layer).
det::MatchResult traced_match(const std::vector<det::Detection>& dets,
                              const std::vector<img::Rect>& truth,
                              double iou) {
  const obs::ScopedSpan span("match", "core/detect");
  return det::match_detections(dets, truth, iou);
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
  day_dusk_bits_ = soc::make_partial_bitstream("day-dusk", partition, device,
                                               config_.bitstream);
  dark_bits_ =
      soc::make_partial_bitstream("dark", partition, device, config_.bitstream);
  countryside_bits_ = soc::make_partial_bitstream("countryside", partition,
                                                  device, config_.bitstream);
}

std::vector<det::Detection> AdaptiveSystem::detect_vehicles(
    const img::RgbImage& frame, data::LightingCondition condition) const {
  if (condition == data::LightingCondition::Dark)
    return models_.dark.detect(frame);
  const img::ImageU8 gray = traced_grey(frame);
  return det::detect_multiscale(gray, models_.vehicle_model_for(condition),
                                config_.sliding);
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
  controller_.stage(system.day_dusk_bits_);
  controller_.stage(system.dark_bits_);
  if (system.models_.has_animal_model()) controller_.stage(system.countryside_bits_);
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
  registry.counter("core.control_steps").inc();
  if (step.sensed != prev_sensed_) registry.counter("core.mode_switches").inc();
  prev_sensed_ = step.sensed;

  // Condition -> reconfiguration decision. Countryside selection only
  // applies when the animal model exists.
  const std::string wanted = system_->models_.has_animal_model()
                                 ? config_for(step.sensed, meta.road)
                                 : config_for(step.sensed);
  const soc::TimePoint now = scheduler_.frame_time(i);
  const soc::TimePoint dwell_until =
      busy_until_ +
      config.scheduler.frame_period() *
          static_cast<std::uint64_t>(std::max(0, config.min_dwell_frames));
  if (wanted != loaded_ &&
      (now < busy_until_ || (busy_until_.ps != 0 && now < dwell_until))) {
    // A wanted swap held back by an in-flight reconfiguration or the
    // min-dwell guard: the control decision the dwell knob exists to shape.
    registry.counter("core.dwell_blocked").inc();
  }
  if (wanted != loaded_ && now >= busy_until_ &&
      (busy_until_.ps == 0 || now >= dwell_until)) {
    // The engine drains its in-flight frame before the partition is opened.
    const soc::Duration drain =
        soc::day_dusk_pipeline_model().frame_time(soc::kHdtvFrame);
    const soc::TimePoint start = now + drain;
    const soc::PartialBitstream& bits =
        wanted == "dark" ? system_->dark_bits_
                         : (wanted == "countryside" ? system_->countryside_bits_
                                                    : system_->day_dusk_bits_);
    const soc::ReconfigResult result = controller_.reconfigure(start, bits);
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

AdaptiveFrameReport AdaptiveSystem::evaluate_frame(
    const ControlStep& step, const data::SequenceFrame& meta) const {
  return evaluate_frame(step, meta, EvaluateOptions{});
}

AdaptiveFrameReport AdaptiveSystem::evaluate_frame(
    const ControlStep& step, const data::SequenceFrame& meta,
    const EvaluateOptions& options) const {
  const obs::ScopedSpan span("evaluate_frame", "core/detect");
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

  if (config_.run_detectors && fr.vehicle_processed) {
    const det::SlidingWindowParams& sliding =
        options.sliding_override != nullptr ? *options.sliding_override
                                            : config_.sliding;
    std::vector<det::Detection> dets;
    if (options.provided_detections != nullptr) {
      // Tracker-coast path: the caller already has this frame's boxes; the
      // frame is never rendered, which is the whole point of the ladder's
      // skip level.
      dets = *options.provided_detections;
      fr.detect_coasted = true;
    } else {
      // The detector that actually runs is determined by the *loaded*
      // configuration, not by the sensed condition: frames between a
      // condition change and the end of the reconfiguration still run the
      // previous pipeline.
      const img::RgbImage frame = traced_render(meta.scene);
      if (fr.active_config == "dark") {
        dets = models_.dark.detect(frame);
      } else if (fr.active_config == "countryside" &&
                 models_.has_animal_model()) {
        // The countryside configuration runs both classifiers behind one
        // shared HOG front end — the software mirror of the hardware block
        // sharing in soc::countryside_blocks().
        const img::ImageU8 gray = traced_grey(frame);
        const det::HogSvmModel* shared_models[] = {
            &models_.vehicle_model_for(fr.sensed), &models_.animal};
        const auto all =
            det::detect_multiscale_multi(gray, shared_models, sliding);
        std::vector<det::Detection> animal_dets;
        for (const det::Detection& d : all) {
          if (d.class_id == det::kClassAnimal)
            animal_dets.push_back(d);
          else
            dets.push_back(d);
        }
        std::vector<img::Rect> animal_truth;
        for (const data::AnimalSpec& a : meta.scene.animals)
          animal_truth.push_back(a.body);
        fr.animal_match =
            traced_match(animal_dets, animal_truth, config_.match_iou);
      } else {
        const img::ImageU8 gray = traced_grey(frame);
        dets = det::detect_multiscale(gray, models_.vehicle_model_for(fr.sensed),
                                      sliding);
      }
    }
    if (options.out_detections != nullptr) *options.out_detections = dets;
    std::vector<img::Rect> truth;
    for (const data::VehicleSpec& v : meta.scene.vehicles)
      truth.push_back(v.body);
    fr.vehicle_match = traced_match(dets, truth, config_.match_iou);
  }
  return fr;
}

AdaptiveRunReport AdaptiveSystem::run(const data::DriveSequence& sequence) const {
  // The batch path is the streaming path driven sequentially: one control
  // step per frame, then the pixel-level pass on each frame. Keeping a
  // single code path is what makes the runtime's per-stream determinism
  // guarantee checkable against this function.
  AdaptiveRunReport report;
  const int n = sequence.frame_count();
  StepSession session = begin_session();

  std::vector<ControlStep> steps;
  steps.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    steps.push_back(session.control_step(sequence.frame(i)));

  report.frames.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    report.frames.push_back(
        evaluate_frame(steps[static_cast<std::size_t>(i)], sequence.frame(i)));

  report.reconfigs = session.reconfigs();
  report.log = session.log();
  return report;
}

}  // namespace avd::core
