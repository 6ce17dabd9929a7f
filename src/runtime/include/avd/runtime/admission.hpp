// The overload-control plane: per-stream admission + the degradation ladder.
//
// Under sustained overload the StreamServer used to miss its 20 ms deadline
// *globally* — every stream's frames aged in the queues equally. The
// AdmissionController instead degrades *locally*, one stream at a time, down
// an explicit ladder:
//
//   level 0  Full       full-fidelity scan (the default pipeline)
//   level 1  CoarseScan coarser pyramid: stride multiplied, levels capped
//   level 2  SkipCoast  scan every Nth frame; in between, the stream's
//                       IouTracker coasts boxes forward by their last motion
//   level 3  Shed       admit nothing; frames surface as explicit shed
//                       reports (vehicle_processed = false), accounted in
//                       StreamResult — never a silent loss
//
// What moves a stream along the ladder is the per-stream obs::SloMonitor
// state machine (PR 3/6), reported once per telemetry window:
//
//   HEALTHY    step one level back up, but only after `recover_after_windows`
//              consecutive healthy windows (slow recover — no flapping)
//   DEGRADED   drop to level 1 immediately; escalate one level per
//              `escalate_after_windows` further degraded windows (fast worsen)
//   UNHEALTHY  level 3 immediately
//
// Fleet pressure: while set_fleet_pressure() holds the flag (the sharded
// front door raises it when at least `fleet_pressure_fraction` of the whole
// fleet's streams are degraded-or-worse), escalation skips the per-stream
// dwell — local degradation is not enough when the whole fleet is drowning.
//
// On top of the ladder, a per-stream token bucket (`TokenBucketConfig`)
// bounds admitted frame rate outright, and `force_level()` lets the
// watchdog / fault plans pin a stream to a level (sticky: health windows no
// longer move it). `AdmissionConfig::enabled` gates the health-driven moves
// and the bucket; forced levels apply whatever it says.
//
// Every transition is recorded (and surfaced through a callback so the
// server can emit `runtime.degrade.level{stream=…}` gauges, trace marks and
// flight-recorder entries), timestamped on the tracer timebase, and carries
// the frame index that observed it when driven from decide().
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "avd/detect/tracker.hpp"
#include "avd/obs/slo.hpp"

namespace avd::runtime {

/// Rungs of the degradation ladder, in worsening order. Integer values are
/// the wire/metric form (`runtime.degrade.level` gauge, /healthz JSON).
enum class DegradeLevel : int {
  Full = 0,        ///< full-fidelity scan
  CoarseScan = 1,  ///< coarser pyramid stride / fewer levels
  SkipCoast = 2,   ///< scan every Nth frame, tracker-coast the rest
  Shed = 3,        ///< admit nothing; frames become explicit shed reports
};

[[nodiscard]] const char* to_string(DegradeLevel level);

/// Hard per-stream admission rate, independent of health. 0 = unlimited.
struct TokenBucketConfig {
  double rate_fps = 0.0;  ///< sustained admitted frames per second (0 = off)
  double burst = 8.0;     ///< bucket depth: tolerated burst above the rate
};

/// Level 1: SlidingWindowParams.stride_cells multiplier.
inline constexpr int kCoarseStrideMultiplier = 2;
/// Level 1: cap on SlidingWindowParams.max_levels.
inline constexpr int kCoarseMaxLevels = 3;
/// Tracker shape used for level-2 coasting. max_misses bounds how many
/// consecutive frames a box survives without a fresh scan.
inline constexpr det::TrackerConfig kCoastTracker{};

/// Shape of the ladder (see file comment for the semantics).
struct DegradeLadderConfig {
  /// Level 2: scan every `skip_modulus`-th frame (by frame index, so the
  /// scan/coast pattern is deterministic); coast the others. Min 2.
  int skip_modulus = 3;
  /// Degraded windows at one level before escalating to the next.
  int escalate_after_windows = 2;
  /// Highest rung sustained DEGRADED windows may reach (clamped to [1, 3]).
  /// 3 (default) lets degraded streaks walk a stream all the way to Shed;
  /// 2 reserves level 3 for UNHEALTHY streams, the watchdog and fault
  /// plans, which all ignore this cap.
  int max_degraded_level = 3;
  /// Healthy windows required per one-level step back up (slow recover).
  int recover_after_windows = 5;
};

struct AdmissionConfig {
  /// Off by default: no health window moves a level and the bucket admits
  /// every frame. The ladder itself is always live, so the watchdog and
  /// fault plans pin levels either way; with nothing forced every frame is
  /// Full.
  bool enabled = false;
  TokenBucketConfig bucket;
  DegradeLadderConfig ladder;
};

/// Per-stage liveness watchdog: a stream that makes no pipeline progress for
/// `timeout` is forced to DegradeLevel::Shed (sticky) instead of wedging the
/// whole serve. Progress is polled every timeout / 5, clamped to
/// [1 ms, 50 ms].
struct WatchdogConfig {
  bool enabled = false;
  std::chrono::milliseconds timeout{2000};
};

/// One ladder transition.
struct DegradeTransition {
  int stream = 0;
  DegradeLevel from = DegradeLevel::Full;
  DegradeLevel to = DegradeLevel::Full;
  /// Control-plane frame index that observed the transition; -1 when it was
  /// driven by a health window / watchdog rather than a frame.
  int frame = -1;
  std::string reason;      ///< "health:degraded", "watchdog", "fault-plan", …
  std::uint64_t t_ns = 0;  ///< tracer-timebase timestamp
};

/// Verdict for one frame at the control stage.
struct AdmissionDecision {
  bool admit = true;                        ///< false: shed this frame
  DegradeLevel level = DegradeLevel::Full;  ///< ladder level applied
  bool coast = false;  ///< level 2 only: coast instead of scan
  const char* shed_reason = nullptr;  ///< "shed-level" | "token-bucket"
};

/// Per-stream admission statistics (monotonic over one controller): the
/// verdicts decide() took at the control step, which /healthz and /statusz
/// report. They are not each frame's final fate: a frame admitted as a
/// degraded scan may still be dropped by the detect queue. StreamResult
/// counts the fates, once per frame.
struct AdmissionStats {
  std::uint64_t admitted = 0;        ///< frames admitted (incl. coasted)
  std::uint64_t shed = 0;            ///< frames refused (level 3 or bucket)
  std::uint64_t shed_by_bucket = 0;  ///< subset of `shed`: token bucket
  std::uint64_t coasted = 0;         ///< level-2 frames served by the tracker
  std::uint64_t degraded_scans = 0;  ///< scans run at level 1 or 2
};

/// The controller. One per serve(); `decide()` is called from the control
/// step (per-stream sequential, on the stream's ingest worker),
/// `on_health_windows()` from the telemetry exporter thread, `force_level()`
/// from the watchdog — all synchronised internally by one mutex (the control
/// step is cheap, the critical sections are tiny).
class AdmissionController {
 public:
  using TransitionCallback = std::function<void(const DegradeTransition&)>;

  AdmissionController(int n_streams, AdmissionConfig config);

  /// Invoked on every ladder transition, from whichever thread drove it
  /// (ingest worker, telemetry thread, or watchdog). Set before serving.
  void set_transition_callback(TransitionCallback cb);

  /// Admission verdict for one frame. `now_ns` feeds the token bucket (pass
  /// a fixed timeline in tests for deterministic bucket behaviour);
  /// `forced_level` (from a fault plan) pins the level for this frame
  /// onward until a different forced level — or none — is seen.
  [[nodiscard]] AdmissionDecision decide(
      int stream, int frame_index, std::uint64_t now_ns,
      std::optional<int> forced_level = std::nullopt);

  /// One call per telemetry window with every stream's health state;
  /// advances the ladder per the rules in the file comment (a no-op with
  /// admission disabled). `now_ns` is the window's sample time on the
  /// tracer timebase, stamped on the transitions it drives.
  void on_health_windows(const std::vector<obs::HealthState>& states,
                         std::uint64_t now_ns);

  /// The fleet-pressure signal: while set, escalation skips the per-stream
  /// dwell. The sharded front door raises it when enough of the whole fleet
  /// is degraded, so one drowning shard's neighbours tighten up too (a
  /// single server that wants the rule runs as a 1-shard front door).
  /// Applies from the next on_health_windows().
  void set_fleet_pressure(bool pressure);

  /// Pin `stream` to `level`, permanently (health windows and fault plans
  /// no longer move it). The watchdog's wedged-stream conversion; the
  /// transition is stamped with obs::Tracer::global().now_ns().
  void force_level(int stream, DegradeLevel level, const std::string& reason);

  [[nodiscard]] DegradeLevel level(int stream) const;
  [[nodiscard]] AdmissionStats stats(int stream) const;
  [[nodiscard]] std::vector<DegradeTransition> transitions(int stream) const;
  /// All streams' transitions, ordered per stream (cross-stream order is
  /// scheduling-dependent and deliberately not represented).
  [[nodiscard]] std::vector<DegradeTransition> transitions() const;
  [[nodiscard]] const AdmissionConfig& config() const { return config_; }

 private:
  struct StreamSlot {
    DegradeLevel level = DegradeLevel::Full;
    /// Level the health machine wants (applied unless forced/pinned).
    DegradeLevel health_target = DegradeLevel::Full;
    bool plan_forced = false;  ///< a fault plan currently pins the level
    bool sticky = false;       ///< force_level() pinned it permanently
    int healthy_streak = 0;
    int degraded_streak = 0;
    double tokens = 0.0;
    std::uint64_t bucket_refill_ns = 0;
    bool bucket_primed = false;
    AdmissionStats stats;
    std::vector<DegradeTransition> transitions;
  };

  /// Records the change + queues the callback; mutex held.
  void set_level_locked(StreamSlot& slot, int stream, DegradeLevel to,
                        int frame, const char* reason, std::uint64_t t_ns,
                        std::vector<DegradeTransition>& fired);

  AdmissionConfig config_;
  mutable std::mutex mutex_;
  std::vector<StreamSlot> streams_;
  TransitionCallback callback_;
  bool fleet_pressure_ = false;  ///< set_fleet_pressure(); mutex_
};

}  // namespace avd::runtime
