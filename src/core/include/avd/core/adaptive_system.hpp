// The adaptive detection system: the paper's end-to-end contribution.
//
// Owns the trained models, the lighting classifier and the simulated Zynq
// reconfiguration machinery. Driving a scripted sequence through run()
// reproduces the paper's operational story: HOG+SVM vehicle detection with a
// block-RAM model swap between day and dusk, a partial reconfiguration to the
// DBN-based dark pipeline when night falls, pedestrian detection never
// interrupted, and exactly one dropped vehicle frame per reconfiguration.
#pragma once

#include "avd/core/lighting_classifier.hpp"
#include "avd/core/system_models.hpp"
#include "avd/datasets/sequence.hpp"
#include "avd/soc/frame_scheduler.hpp"
#include "avd/soc/hw_pipeline.hpp"
#include "avd/soc/reconfig.hpp"

namespace avd::core {

/// Name of the partial configuration serving a lighting condition.
[[nodiscard]] inline const char* config_for(data::LightingCondition c) {
  return c == data::LightingCondition::Dark ? "dark" : "day-dusk";
}

/// Extended selection (countryside extension, paper §I): darkness always
/// wins; otherwise countryside roads load the configuration that carries
/// the animal classifier next to the vehicle pipeline.
[[nodiscard]] inline const char* config_for(data::LightingCondition c,
                                            data::RoadType road) {
  if (c == data::LightingCondition::Dark) return "dark";
  return road == data::RoadType::Countryside ? "countryside" : "day-dusk";
}

struct AdaptiveSystemConfig {
  soc::ReconfigMethod method = soc::ReconfigMethod::PlDmaIcap;
  soc::FrameSchedulerConfig scheduler;
  LightingClassifierConfig classifier;
  soc::FloorplanParams floorplan;
  soc::BitstreamParams bitstream;
  /// Minimum frames between the end of one reconfiguration and the trigger
  /// of the next. Each reconfiguration costs a dropped frame, so a flapping
  /// selection signal (light flicker at a class boundary, GPS jitter on the
  /// urban/countryside edge) must not be allowed to thrash the partition.
  /// 0 disables the dwell (the classifier's debounce is then the only guard).
  int min_dwell_frames = 0;
  /// Derive the light level from the captured frame itself
  /// (LightingClassifier::estimate_light_level) instead of the external
  /// sensor signal the paper assumes. Makes the system self-contained at the
  /// cost of rendering every frame during the control pass.
  bool use_image_light_estimate = false;
  /// Run the pixel-level detectors on processed frames (software models of
  /// the accelerators). Disable for long control-plane-only simulations.
  bool run_detectors = true;
  det::SlidingWindowParams sliding;
  double match_iou = 0.25;
};

/// Per-frame outcome of an adaptive run.
struct AdaptiveFrameReport {
  int index = 0;
  double light_level = 0.0;
  data::LightingCondition sensed = data::LightingCondition::Day;
  std::string active_config;       ///< partition contents when frame arrived
  bool vehicle_processed = false;  ///< false = dropped for reconfiguration
  bool pedestrian_processed = false;
  bool reconfig_triggered = false; ///< a PR started during this frame
  int vehicles_truth = 0;
  det::MatchResult vehicle_match;  ///< only populated when run_detectors
  int animals_truth = 0;
  det::MatchResult animal_match;   ///< populated under "countryside"
  /// Degradation-ladder level the serving runtime applied to this frame
  /// (runtime::DegradeLevel as int; 0 = full fidelity, always 0 from run()).
  int degrade_level = 0;
  /// True when the frame's vehicle detections came from tracker coasting
  /// (ladder level 2) rather than a pixel-level scan.
  bool detect_coasted = false;
};

/// Aggregate over the frames of one sensed lighting condition.
struct ConditionSummary {
  data::LightingCondition condition = data::LightingCondition::Day;
  int frames = 0;
  int dropped = 0;
  det::MatchResult vehicle_match;

  [[nodiscard]] double recall() const {
    const int truth =
        vehicle_match.true_positives + vehicle_match.false_negatives;
    return truth > 0 ? static_cast<double>(vehicle_match.true_positives) /
                           static_cast<double>(truth)
                     : 0.0;
  }
};

struct AdaptiveRunReport {
  std::vector<AdaptiveFrameReport> frames;
  std::vector<soc::ReconfigResult> reconfigs;
  soc::EventLog log;

  [[nodiscard]] int reconfig_count() const {
    return static_cast<int>(reconfigs.size());
  }
  [[nodiscard]] int dropped_vehicle_frames() const;
  [[nodiscard]] int pedestrian_frames_processed() const;
  /// Fraction of frames the vehicle engine processed.
  [[nodiscard]] double vehicle_availability() const;
  /// Aggregated detection quality over processed frames.
  [[nodiscard]] det::MatchResult total_vehicle_match() const;
  /// Per-condition breakdown (day/dusk/dark, in enum order; conditions with
  /// zero frames are included with zero counts).
  [[nodiscard]] std::vector<ConditionSummary> per_condition() const;
};

/// Control-plane outcome for one frame: everything pass-1/pass-2 of the
/// batch run decides about a frame, produced incrementally by
/// AdaptiveSystem::StepSession::control_step.
struct ControlStep {
  int index = 0;
  double light_level = 0.0;
  data::LightingCondition sensed = data::LightingCondition::Day;
  bool reconfig_triggered = false;
  soc::FrameRecord record;  ///< schedule decision (config, processed flags)
};

/// Degraded-fidelity knobs for AdaptiveSystem::evaluate_frame, used by the
/// serving runtime's degradation ladder. Defaults are the full-fidelity
/// pass.
struct EvaluateOptions {
  /// Scan with these sliding-window params instead of config().sliding
  /// (the ladder's coarser pyramid). The dark detector's internal scan is
  /// unaffected. Not owned; may be null.
  const det::SlidingWindowParams* sliding_override = nullptr;
  /// Skip the pixel-level scan and use these vehicle detections instead
  /// (the ladder's tracker-coast path) — the frame is never rendered.
  /// Not owned; may be null.
  const std::vector<det::Detection>* provided_detections = nullptr;
  /// When non-null, receives the vehicle detections the frame produced
  /// (post-NMS, pre-matching) so the caller can feed its tracker.
  std::vector<det::Detection>* out_detections = nullptr;
};

class AdaptiveSystem {
 public:
  AdaptiveSystem(SystemModels models, AdaptiveSystemConfig config = {});

  /// Mutable per-run control-plane state (lighting classifier, PR controller,
  /// frame scheduler). One session per stream; frames of a stream MUST be
  /// stepped in order. A session is not itself thread-safe, but independent
  /// sessions over the same (const) AdaptiveSystem may run on different
  /// threads concurrently — this is what the avd::runtime StreamServer does.
  class StepSession {
   public:
    explicit StepSession(const AdaptiveSystem& system);

    /// Run the control plane for the next frame (sensor reading -> lighting
    /// condition -> reconfiguration decision) and return the frame's final
    /// schedule record. Deterministic: stepping a whole sequence reproduces
    /// the batch run() control pass bit for bit.
    [[nodiscard]] ControlStep control_step(const data::SequenceFrame& meta);

    [[nodiscard]] int frames_stepped() const { return next_index_; }
    [[nodiscard]] const std::vector<soc::ReconfigResult>& reconfigs() const {
      return reconfigs_;
    }
    [[nodiscard]] const soc::EventLog& log() const;

   private:
    const AdaptiveSystem* system_;
    soc::ReconfigController controller_;
    soc::FrameScheduler scheduler_;
    LightingClassifier classifier_;
    std::string loaded_ = "day-dusk";  // boot configuration
    soc::TimePoint busy_until_{0};
    int next_index_ = 0;
    data::LightingCondition prev_sensed_ = data::LightingCondition::Day;
    std::vector<soc::ReconfigResult> reconfigs_;
  };

  /// Start a fresh control-plane session (the streaming equivalent of one
  /// run() call).
  [[nodiscard]] StepSession begin_session() const { return StepSession(*this); }

  /// Pixel-level pass for one frame given its control outcome, optionally
  /// at degraded fidelity (see EvaluateOptions). Const and thread-safe: a
  /// pure function of the trained models, so the runtime's detect workers
  /// may call it concurrently.
  [[nodiscard]] AdaptiveFrameReport evaluate_frame(
      const ControlStep& step, const data::SequenceFrame& meta,
      const EvaluateOptions& options = {}) const;

  /// Drive a scripted sequence through the system (sequentially; the
  /// concurrent equivalent is runtime::StreamServer).
  [[nodiscard]] AdaptiveRunReport run(const data::DriveSequence& sequence) const;

  /// Detect vehicles on one frame with the pipeline serving `condition`
  /// (assumes the right configuration is loaded).
  [[nodiscard]] std::vector<det::Detection> detect_vehicles(
      const img::RgbImage& frame, data::LightingCondition condition) const;

  /// Pedestrian detection (static partition).
  [[nodiscard]] std::vector<det::Detection> detect_pedestrians(
      const img::ImageU8& gray) const;

  [[nodiscard]] const SystemModels& models() const { return models_; }
  [[nodiscard]] const AdaptiveSystemConfig& config() const { return config_; }

 private:
  SystemModels models_;
  AdaptiveSystemConfig config_;
  soc::ZynqPlatform platform_;
  soc::PartialBitstream day_dusk_bits_;
  soc::PartialBitstream dark_bits_;
  soc::PartialBitstream countryside_bits_;
};

}  // namespace avd::core
