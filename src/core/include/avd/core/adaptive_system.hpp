// The adaptive detection system: the paper's end-to-end contribution.
//
// Owns the trained models, the lighting classifier and the simulated Zynq
// reconfiguration machinery. Driving a scripted sequence through run()
// reproduces the paper's operational story: HOG+SVM vehicle detection with a
// block-RAM model swap between day and dusk, a partial reconfiguration to the
// DBN-based dark pipeline when night falls, and exactly one dropped vehicle
// frame per reconfiguration. No pedestrian scan runs in run():
// pedestrian_processed is the frame scheduler's flag for the static
// partition, and detect_pedestrians is a separate call.
#pragma once

#include <optional>
#include <string_view>

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
  /// (ladder level 2) rather than a pixel-level scan; set by the runtime.
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

/// What the vehicle engine found on one frame.
struct FrameDetections {
  std::vector<det::Detection> vehicles;
  /// Set when the loaded configuration scored the animal classifier too.
  std::optional<std::vector<det::Detection>> animals;
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

  /// The one detector dispatch, picked by the loaded configuration: "dark"
  /// runs the dark pipeline; otherwise one grey conversion feeds one HOG scan
  /// at `sliding` over the vehicle model for `sensed` and, under
  /// "countryside", the animal classifier.
  [[nodiscard]] FrameDetections detect_frame(
      const img::RgbImage& frame, std::string_view config,
      data::LightingCondition sensed,
      const det::SlidingWindowParams& sliding) const;

  /// Render a frame and run detect_frame with its loaded configuration and
  /// sensed condition, or nothing when the vehicle engine does not scan it
  /// (a frame dropped for reconfiguration, or run_detectors off).
  [[nodiscard]] std::optional<FrameDetections> scan_frame(
      const ControlStep& step, const data::SequenceFrame& meta,
      const det::SlidingWindowParams& sliding) const;

  /// A frame's report from its control outcome and its boxes (none: the
  /// frame was not scanned). Boxes are matched against the scene's truth,
  /// animal_match only when the animal classifier ran, and never on a frame
  /// the vehicle engine does not scan.
  [[nodiscard]] AdaptiveFrameReport report_frame(
      const ControlStep& step, const data::SequenceFrame& meta,
      const std::optional<FrameDetections>& boxes) const;

  /// One frame of run(): scan_frame at config().sliding, then report_frame.
  /// Const and thread-safe, like every call above.
  [[nodiscard]] AdaptiveFrameReport evaluate_frame(
      const ControlStep& step, const data::SequenceFrame& meta) const;

  /// Drive a scripted sequence through the system (sequentially; the
  /// concurrent equivalent is runtime::StreamServer).
  [[nodiscard]] AdaptiveRunReport run(const data::DriveSequence& sequence) const;

  /// detect_frame's vehicles under the configuration serving `condition`.
  [[nodiscard]] std::vector<det::Detection> detect_vehicles(
      const img::RgbImage& frame, data::LightingCondition condition) const;

  /// Pedestrian detection (static partition).
  [[nodiscard]] std::vector<det::Detection> detect_pedestrians(
      const img::ImageU8& gray) const;

  [[nodiscard]] const SystemModels& models() const { return models_; }
  [[nodiscard]] const AdaptiveSystemConfig& config() const { return config_; }

 private:
  [[nodiscard]] bool scans(const ControlStep& step) const {
    return config_.run_detectors && step.record.vehicle_processed;
  }

  SystemModels models_;
  AdaptiveSystemConfig config_;
  soc::ZynqPlatform platform_;
  std::vector<soc::PartialBitstream> bitstreams_;  ///< one per configuration
};

}  // namespace avd::core
