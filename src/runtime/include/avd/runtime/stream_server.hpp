// StreamServer: the concurrent multi-stream serving runtime.
//
// Runs the adaptive pipeline as three stages over two bounded queues:
//
//   sources ── ingest+control ──> [detect queue] ── detect ──┐
//              workers  │          (configurable)   workers   │
//                       │ shed and coast frames               │
//                       v                                     │
//   results <── collector <── [report queue] <────────────────┘
//                               (Block)
//
// * ingest+control — each worker claims whole FrameSources, pulls a frame
//              and runs its control step right there: the sequential
//              per-stream brain (lighting classification, reconfiguration
//              decisions, frame scheduling, the admission verdict) via
//              core::AdaptiveSystem::StepSession. A stream's frames leave
//              one thread in index order, so the session needs no lock;
//              different streams proceed concurrently.
// * detect   — the heavy, embarrassingly parallel stage: the const
//              AdaptiveSystem::scan_frame (the ladder's coarse pyramid passed
//              as its sliding-window argument) and report_frame. This pool
//              is the throughput knob.
// * report   — a single collector slots per-frame reports into per-stream
//              result vectors (order-insensitive by construction) and
//              counts each frame's fate once. It also feeds each stream's
//              tracker in index order and resolves level-2 coast frames (no
//              pixel work, so no detect-queue slot) from it.
//
// The degradation ladder (avd/runtime/admission.hpp) is live on every
// serve: each frame gets an admission verdict at its control step. With
// admission off and no level forced by the watchdog or a fault plan, every
// verdict is Full and the reports are those of a serve without it.
//
// Determinism: with the default Block policy every per-stream report is
// bit-identical to the sequential AdaptiveSystem::run() on the same
// sequence, whatever the worker counts — enforced by tests/runtime. With
// DropOldest on the detect queue, overflowing frames are not lost silently:
// they surface as vehicle_processed=false reports, exactly the shape of the
// paper's reconfiguration frame drop. No pedestrian scan runs on any frame;
// pedestrian_processed is the frame scheduler's flag.
//
// Metrics: the global obs::MetricsRegistry is the one store. Per stage,
// runtime.stage.latency_ns (histogram), runtime.stage.processed (counter)
// and runtime.stage.queue_high_water (gauge, the input queue's depth
// high-water over the latest serve; 0 for ingest and control, which have
// none), labeled stage=ingest|control|detect|report; per stream, the
// runtime.* series the SLO rules read. Both carry
// StreamServerConfig::metric_labels. Detect-queue overflows are counted by
// runtime.backpressure_drops{stream=}.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "avd/core/adaptive_system.hpp"
#include "avd/obs/flight_recorder.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/ops_server.hpp"
#include "avd/obs/sample_profiler.hpp"
#include "avd/obs/slo.hpp"
#include "avd/obs/trace_sampler.hpp"
#include "avd/runtime/admission.hpp"
#include "avd/runtime/bounded_queue.hpp"
#include "avd/runtime/frame_source.hpp"

namespace avd::runtime {

class ThreadPool;      // avd/runtime/thread_pool.hpp
class FaultInjector;   // avd/runtime/fault_injection.hpp
class OpsSurface;      // the ops endpoints, src/runtime/src/ops_surface.hpp

/// Health monitoring attached to a serve() call: an always-on
/// obs::TelemetryExporter samples the global MetricsRegistry for the run's
/// duration and per-stream obs::SloMonitors evaluate each window
/// (frame-deadline misses vs the 20 ms / 50 fps budget, queue drop rate,
/// reconfiguration frame loss beyond the paper's one-frame cost).
///
/// Tail-based trace sampling is active whenever the tracer was enabled
/// during serve(), independent of `enabled`: every 64th frame chain is
/// retained as a healthy baseline (up to 256 chains), deadline misses and
/// backpressure drops are always retained, everything else folds into
/// per-span-name SpanStats. The flight recorder keeps 32 chains per stream.
struct StreamSloConfig {
  /// Off by default: monitoring costs one background sampling thread; the
  /// per-stream counters feeding it are recorded regardless.
  bool enabled = false;
  /// Per-frame end-to-end (ingest -> report) deadline. The paper's frame
  /// budget: one 50 fps frame.
  double frame_budget_ms = 20.0;
  /// Telemetry sampling period.
  std::chrono::milliseconds telemetry_period{20};
  /// Optional append-only JSONL sink for the telemetry samples.
  std::string telemetry_jsonl;
  /// Hysteresis of the per-stream health state machines.
  obs::SloConfig hysteresis;
  /// Thresholds for the standard rule set
  /// (obs::standard_stream_rules_labeled).
  double deadline_miss_degraded = 0.05;
  double deadline_miss_unhealthy = 0.25;
  double drop_rate_degraded = 0.01;
  double drop_rate_unhealthy = 0.10;
  /// Directory for automatic flight-recorder bundles, written at the end of
  /// a serve() during which some stream transitioned to UNHEALTHY. Empty:
  /// no file; the bundle stays in memory (obs_view().recorder->dump()).
  std::string flight_dump_dir;
};

/// The live introspection plane: an embedded obs::OpsServer owned by the
/// StreamServer for its whole lifetime (not per serve()), so a fleet
/// operator can scrape metrics, read health, pull traces and profile the
/// pipeline *while it serves*. The sharded front door answers the same
/// endpoints for its fleet; a StreamServer is a fleet of one shard:
///
///   /metricsz       Prometheus text exposition (rollup() first)
///   /metricsz.json  registry snapshot as JSON
///   /healthz        fleet + per-shard per-stream SLO states; 503 UNHEALTHY
///   /tracez         tail-sampler retained chains + per-span-name stats of
///                   shard ?shard=m's (default 0) latest serve
///   /flightz        flight-recorder bundle of shard ?shard=m, on demand
///   /statusz        role, uptime, build identity, serving configuration
///   /profilez       span-sampling profile over ?seconds=N, at most 10
///                   (collapsed text; ?format=json for the structured report),
///                   sampled at obs::SampleProfilerConfig's defaults
struct StreamOpsConfig {
  /// Off by default: the ops plane costs a listener socket plus
  /// 1 + handler_threads background threads.
  bool enabled = false;
  /// Listener shape. Default binds 127.0.0.1 on an ephemeral port — read it
  /// back via StreamServer::ops_server()->port().
  obs::OpsServerConfig server;
};

struct StreamServerConfig {
  /// Workers pulling sources and running each frame's control step (the
  /// one that renders it when use_image_light_estimate is set). More than
  /// one only helps when several streams are served (a source is never
  /// shared).
  int ingest_workers = 1;
  /// Workers running pixel-level detection — the scaling knob.
  int detect_workers = 2;
  /// Capacity of every inter-stage queue.
  std::size_t queue_capacity = 16;
  /// Backpressure policy of the detect queue only; the report queue always
  /// blocks (the collector must see every frame).
  OverflowPolicy detect_policy = OverflowPolicy::Block;
  /// Milliseconds each detect task additionally occupies its worker,
  /// modelling a blocking dispatch to the PL accelerator (which the paper
  /// runs at one frame per 20 ms). 0 = off. Used by the scaling bench so
  /// serving concurrency is measurable independent of host CPU count.
  double simulated_accel_ms = 0.0;
  /// The pool a detect worker fans a gathered batch onto (see
  /// cross_stream_batching); install the SAME pool as
  /// core::AdaptiveSystemConfig::sliding.pool so frame-level parallelism,
  /// the HOG scanner's level parallelism and the dark scan's blob gather +
  /// DBN batch scoring all share one set of OS threads instead of
  /// oversubscribing. The pool is caller-helping, so a batch never stalls
  /// on busy pool threads. Not owned.
  ThreadPool* scan_pool = nullptr;
  /// Every detect worker is a dedicated thread running one loop: pop a
  /// frame, gather, run. With this switch on and scan_pool set, the gather
  /// adds whatever frames are already queued, from ALL streams, up to
  /// detect_batch_max, and runs the scan frames as one indexed wave on
  /// scan_pool, so a sparse stream never strands detect cores behind a busy
  /// neighbour. Otherwise the gather holds one frame. Level-2 coast frames
  /// never reach a detect worker (the collector resolves them). Per-stream
  /// results are bit-identical to the sequential run either way
  /// (test-enforced).
  bool cross_stream_batching = false;
  /// Largest gather one detect worker takes (values below 1 act as 1).
  int detect_batch_max = 8;
  /// Extra labels appended to every per-stream labeled series this server
  /// publishes — the sharded front door passes {{"shard","<m>"}} so one
  /// registry holds shard= x stream= leaves that rollup() folds into
  /// per-shard marginals and the fleet base. The stream= label is always
  /// added on top of these.
  obs::Labels metric_labels;
  /// Fleet-global values for the stream= label, indexed like the sources
  /// passed to serve(). Streams beyond the vector (or when it is empty)
  /// fall back to the local index rendered in decimal.
  std::vector<std::string> stream_names;
  /// Telemetry + SLO health monitoring for this server's serve() calls.
  StreamSloConfig slo;
  /// Embedded ops server + on-demand profiler (see StreamOpsConfig).
  StreamOpsConfig ops;
  /// The overload-control plane (see avd/runtime/admission.hpp): per-stream
  /// token-bucket admission and the SloMonitor-driven degradation ladder.
  /// admission.enabled switches on health-driven level changes and the
  /// bucket; the ladder itself runs on every serve, so the watchdog's and a
  /// fault plan's forced levels apply either way.
  AdmissionConfig admission;
  /// Per-stream liveness watchdog: a stream making no pipeline progress for
  /// watchdog.timeout is pinned to DegradeLevel::Shed and its source is
  /// abandoned at the next ingest opportunity — a wedged stream becomes a
  /// degrade-level-3 event with StreamResult accounting, not a hung serve.
  /// (A source blocked *inside* next() forever can only be reaped once that
  /// call returns; the watchdog cannot cancel foreign blocking calls.)
  WatchdogConfig watchdog;
  /// Deterministic fault plans for this server's serves (not owned; use one
  /// injector per serve — its counters and retry bookkeeping accumulate).
  /// Sources are wrapped with the plan's source faults, detect workers apply
  /// its slowdowns, and ForceDegrade specs pin the ladder per frame.
  FaultInjector* fault_injector = nullptr;
};

/// Everything one stream produced. The collector counts each frame's fate
/// once: a frame is in at most one of backpressure_drops, shed_frames,
/// coasted_frames and degraded_scans; the last three equal the serve's
/// growth of runtime.{shed,coasted,degraded_scans}{stream=}.
struct StreamResult {
  int stream = 0;
  core::AdaptiveRunReport report;
  /// Frames that overflowed the detect queue (DropOldest only); they are
  /// still present in report.frames, marked vehicle_processed = false.
  std::uint64_t backpressure_drops = 0;
  /// Frames whose ingest -> report latency exceeded slo.frame_budget_ms.
  std::uint64_t deadline_misses = 0;
  /// Final health of the stream's SLO state machine (HEALTHY when
  /// monitoring was disabled) and every transition it went through.
  obs::HealthState health = obs::HealthState::Healthy;
  std::vector<obs::HealthTransition> health_transitions;
  /// Overload-control accounting (all zero while every frame is Full).
  /// Shed frames are still present in report.frames with
  /// vehicle_processed = false and degrade_level = 3.
  std::uint64_t shed_frames = 0;
  /// Level-2 frames served from the tracker instead of a scan.
  std::uint64_t coasted_frames = 0;
  /// Scans that ran at reduced fidelity (level 1, or the level-2 scan
  /// frames). A degraded frame the detect queue dropped is a drop instead.
  std::uint64_t degraded_scans = 0;
  /// Frames refused at ingest validation (non-finite light level); they
  /// never received a frame index and are absent from report.frames.
  std::uint64_t garbage_frames = 0;
  /// Retries of a source that threw TransientSourceError. A failed pull is
  /// tried at most three times in all, with a backoff of 1 ms doubled per
  /// retry.
  std::uint64_t source_retries = 0;
  /// True when the source failed permanently (retries exhausted or a
  /// non-transient exception); the stream is truncated at that frame.
  bool source_failed = false;
  /// True when the liveness watchdog pinned this stream to Shed.
  bool watchdog_fired = false;
  /// Ladder level at the end of the serve and every transition taken.
  DegradeLevel degrade_level = DegradeLevel::Full;
  std::vector<DegradeTransition> degrade_transitions;
};

class StreamServer {
 public:
  /// Throws std::runtime_error when config.ops.enabled and the ops listener
  /// cannot bind (port taken, bad address) — a server that silently serves
  /// without its introspection plane is worse than one that fails fast.
  explicit StreamServer(const core::AdaptiveSystem& system,
                        StreamServerConfig config = {});
  /// Stops the ops plane first: its handler threads read members.
  ~StreamServer();
  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Serve every source to completion; results are indexed like `sources`.
  [[nodiscard]] std::vector<StreamResult> serve(
      std::vector<std::unique_ptr<FrameSource>> sources);

  /// Convenience: one SequenceFrameSource per sequence.
  [[nodiscard]] std::vector<StreamResult> serve_sequences(
      const std::vector<data::DriveSequence>& sequences);

  [[nodiscard]] const StreamServerConfig& config() const { return config_; }

  /// Invoked (from the telemetry thread) on every per-stream health
  /// transition while serve() runs; requires config().slo.enabled.
  using HealthCallback =
      std::function<void(int stream, const obs::HealthTransition&)>;
  void set_health_callback(HealthCallback cb) { health_callback_ = std::move(cb); }

  /// One stream of the latest serve as the ops plane reports it.
  struct StreamView {
    std::string name;  ///< the stream= label
    obs::HealthState health = obs::HealthState::Healthy;
    DegradeLevel level = DegradeLevel::Full;
    AdmissionStats stats;  ///< the admission verdicts so far
  };
  /// The latest serve's live state, read in one step under the server's
  /// lock: the one way to read it from outside serve(), for the ops
  /// endpoints, the front door and callers alike. A reader keeps the
  /// sampler and recorder alive across a serve() that replaces them.
  struct ObsView {
    std::vector<StreamView> streams;  ///< empty before any serve
    std::shared_ptr<const obs::TraceSampler> sampler;    ///< null before any
    std::shared_ptr<const obs::FlightRecorder> recorder;  ///< null before any
  };
  [[nodiscard]] ObsView obs_view() const;
  /// Sets the live admission controller's fleet_pressure, and that of every
  /// later serve()'s controller until the next call.
  void set_fleet_pressure(bool pressure);

  /// Live per-stream health: mid-serve the SLO monitors answer with their
  /// current state-machine position; between serves their final verdicts
  /// answer (all HEALTHY with monitoring disabled; empty before any serve).
  [[nodiscard]] std::vector<obs::HealthState> live_stream_health() const;
  /// Worst-of rollup of live_stream_health(): one saturated stream is
  /// visible here no matter how many healthy neighbours it has.
  [[nodiscard]] obs::HealthState fleet_health() const {
    return obs::worst_of(live_stream_health());
  }

  /// Path of the bundle the most recent serve() wrote on an UNHEALTHY
  /// transition; empty when none was written.
  [[nodiscard]] const std::string& last_flight_bundle_path() const {
    return last_flight_bundle_path_;
  }

  /// The embedded ops listener (nullptr unless config().ops.enabled).
  /// Running from construction to destruction; its port() is where
  /// /metricsz etc. answer.
  [[nodiscard]] obs::OpsServer* ops_server() const;
  /// The /profilez profiler (nullptr unless config().ops.enabled). Usable
  /// directly too: profiler()->run_for(...) during a serve() on another
  /// thread.
  [[nodiscard]] obs::SampleProfiler* profiler() const;

 private:
  const core::AdaptiveSystem* system_;
  StreamServerConfig config_;
  HealthCallback health_callback_;
  /// Guards the swap of the per-serve observability objects (admission_,
  /// sampler_, recorder_, monitors_, stream_count_) and fleet_pressure_
  /// between serve(), the front door and the ops handler threads. The
  /// objects themselves are internally thread-safe; only the
  /// pointers/containers need the lock.
  mutable std::mutex obs_mutex_;
  std::size_t stream_count_ = 0;  ///< streams of the latest non-empty serve()
  std::shared_ptr<AdmissionController> admission_;
  bool fleet_pressure_ = false;  ///< the last set_fleet_pressure()
  std::shared_ptr<obs::TraceSampler> sampler_;
  std::shared_ptr<obs::FlightRecorder> recorder_;
  std::vector<std::shared_ptr<obs::SloMonitor>> monitors_;
  std::string last_flight_bundle_path_;
  std::atomic<std::uint64_t> serve_count_{0};  ///< bundle names + /statusz
  /// Declared last, so destroyed first: its handlers read the members above.
  std::unique_ptr<OpsSurface> ops_;
};

}  // namespace avd::runtime
