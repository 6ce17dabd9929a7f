#include "avd/runtime/stream_server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "avd/obs/frame_trace.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/telemetry.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/fault_injection.hpp"
#include "avd/runtime/thread_pool.hpp"
#include "ops_surface.hpp"

namespace avd::runtime {
namespace {

using Clock = std::chrono::steady_clock;

// A transient source failure is tried this many times in all, waiting the
// backoff before the first retry and doubling it on each further one.
constexpr int kSourceMaxAttempts = 3;
constexpr double kSourceRetryBackoffMs = 1.0;
constexpr double kSourceRetryBackoffMultiplier = 2.0;
// Tail sampling: every Nth frame chain is retained as a healthy baseline
// (deadline misses, drops and sheds always are), up to a bounded FIFO.
constexpr std::uint64_t kTraceHeadSampleEvery = 64;
constexpr std::size_t kTraceMaxRetained = 256;
// Flight recorder: frame chains remembered per stream.
constexpr std::size_t kFlightFramesPerStream = 32;

/// A frame after the control plane, waiting for pixel-level detection.
struct DetectTask {
  int stream = 0;
  core::ControlStep step;
  data::SequenceFrame meta;
  obs::TraceContext trace;      ///< the ingest span, then the control span
  /// Tracer-timebase nanoseconds when the frame entered the pipeline;
  /// report-side latency (and the deadline check) measures from here.
  std::uint64_t ingest_ns = 0;
  AdmissionDecision decision;   ///< ladder verdict (defaults: full fidelity)
};

/// A frame heading to the collector: its finished report, or (ladder level
/// 2) the coast frame itself, whose report the collector makes once the
/// stream's tracker reaches it.
struct ReportTask {
  int stream = 0;
  core::AdaptiveFrameReport report;
  obs::TraceContext trace;      ///< the detect, shed or drop span
  std::uint64_t ingest_ns = 0;  ///< frame entry time (latency measures here)
  bool backpressure_dropped = false;
  bool shed = false;            ///< refused by admission (never ran detect)
  std::vector<det::Detection> dets;  ///< the scan's boxes, for the tracker
  std::optional<DetectTask> coast;   ///< a coast frame, not yet evaluated
};

/// One stream's coast ledger, kept by the collector alone. The
/// tracker sees every frame of the stream once, in index order: a scan's
/// boxes, or an empty update for a shed, dropped or coast frame. Frames
/// park in `waiting` until the frontier (`fed`) reaches them.
struct CoastLedger {
  det::IouTracker tracker{kCoastTracker};
  int fed = 0;  ///< frames fed to the tracker, so the next index it needs
  std::map<int, ReportTask> waiting;
};

/// What became of one stream's frames, each counted once, by the collector
/// when it finishes the frame (see StreamResult).
struct FrameOutcomes {
  std::uint64_t deadline_misses = 0;
  std::uint64_t backpressure_drops = 0;
  std::uint64_t shed = 0;
  std::uint64_t coasted = 0;
  std::uint64_t degraded_scans = 0;
};

/// Mutable per-stream state. The control-plane session is touched only by
/// the one ingest worker that owns the stream's source (and read after
/// join), so frames reach it in index order without a lock.
struct StreamState {
  explicit StreamState(const core::AdaptiveSystem& system)
      : session(system.begin_session()) {}

  core::AdaptiveSystem::StepSession session;
  std::atomic<int> frames_ingested{-1};  ///< -1 until its ingest ends
  /// Trace ids of the frames this serve ingested (traced serves only).
  /// Written by the one ingest worker that owns the stream, read after join.
  std::vector<std::uint64_t> trace_ids;
  // Fault accounting (see StreamResult).
  std::atomic<std::uint64_t> garbage_frames{0};
  std::atomic<std::uint64_t> source_retries{0};
  std::atomic<bool> source_failed{false};
  std::atomic<bool> watchdog_fired{false};
  // Liveness watchdog inputs: tracer-ns of the last pipeline progress on
  // this stream, and completion markers so a finished stream is never fired.
  std::atomic<std::uint64_t> last_progress_ns{0};
  std::atomic<bool> ingest_started{false};
  std::atomic<int> collected{0};
};

/// The per-stream labeled series the SLO rules read
/// (obs::standard_stream_rules_labeled with the same stream id). Resolved
/// once per serve(); collector-thread only.
struct StreamCounters {
  obs::Counter* frames = nullptr;
  obs::Counter* deadline_miss = nullptr;
  obs::Counter* backpressure_drops = nullptr;
  obs::Counter* reconfig_drops = nullptr;
  obs::Counter* reconfigs = nullptr;
  obs::Histogram* latency = nullptr;  ///< runtime.frame.latency_ns{stream=N}
  obs::Counter* shed = nullptr;
  obs::Counter* coasted = nullptr;
  obs::Counter* degraded_scans = nullptr;
  obs::Counter* garbage = nullptr;
  obs::Counter* source_retries = nullptr;
  obs::Gauge* degrade_level = nullptr;  ///< runtime.degrade.level{stream=N}
};

/// One pipeline stage's series, runtime.stage.*{stage=<name>} plus the
/// server's metric_labels. Resolved once per serve().
struct StageSeries {
  StageSeries(obs::MetricsRegistry& registry, obs::Labels labels,
              const char* stage) {
    labels.emplace_back("stage", stage);
    latency = &registry.histogram("runtime.stage.latency_ns", labels);
    processed = &registry.counter("runtime.stage.processed", labels);
    queue_high_water =
        &registry.gauge("runtime.stage.queue_high_water", labels);
  }

  obs::Histogram* latency = nullptr;
  obs::Counter* processed = nullptr;
  /// Depth high-water of the stage's input queue over the latest serve
  /// (ingest has none; its gauge stays 0).
  obs::Gauge* queue_high_water = nullptr;

  void record(Clock::time_point t0) const {
    latency->record(Clock::now() - t0);
    processed->inc();
  }
};

std::string stream_entity(int stream) {
  return "stream" + std::to_string(stream);
}

// The stream= label of stream s: its global name from stream_names, else
// the local index in decimal.
std::string stream_name(const StreamServerConfig& config, int s) {
  const auto us = static_cast<std::size_t>(s);
  return us < config.stream_names.size() ? config.stream_names[us]
                                         : std::to_string(s);
}

/// One serve() call: the staged dataflow of the header comment over its
/// two queues, with the per-stream state, the metric series, the
/// degradation ladder and the observability objects it feeds. The member
/// functions below the constructor are the stages; each runs on its own
/// threads between launch() and join().
class ServeRun {
 public:
  ServeRun(const core::AdaptiveSystem& system, const StreamServerConfig& config,
           const StreamServer::HealthCallback& health_callback,
           std::vector<std::unique_ptr<FrameSource>> sources);
  ~ServeRun();

  // The observability objects, created here and shared with the server
  // (for obs_view() and its ops plane) before launch().
  std::shared_ptr<AdmissionController> admission;
  std::shared_ptr<obs::TraceSampler> sampler;
  std::shared_ptr<obs::FlightRecorder> recorder;
  std::vector<std::shared_ptr<obs::SloMonitor>> monitors;  ///< empty: SLO off

  void launch();
  void join();
  /// After join(): queue gauges, the registry rollup, the last telemetry
  /// window, the tail sampler's ingest and a requested flight bundle.
  /// Returns the bundle's path, empty when none was written.
  std::string finalise(std::uint64_t serve_id);
  std::vector<StreamResult> assemble();

 private:
  obs::Labels stream_labels(int s) const;
  StreamState& stream(int s) { return *streams_[static_cast<std::size_t>(s)]; }
  void build_streams();
  void build_ladder();
  void build_monitors(const StreamServer::HealthCallback& health_callback);

  void ingest();
  void ingest_stream(int s);
  std::optional<data::SequenceFrame> pull(FrameSource& src, int s);
  void control_frame(StreamState& state, int index, DetectTask&& dt);
  void detect();
  void detect_frame(DetectTask& task);
  void emit_unscanned(DetectTask&& task, bool shed);
  void collect();
  void coast_frame(CoastLedger& ledger, ReportTask& task);
  void finish(ReportTask& task);
  void watchdog();

  const core::AdaptiveSystem& system_;
  const StreamServerConfig& config_;
  std::vector<std::unique_ptr<FrameSource>> sources_;
  const int n_streams_;
  obs::Tracer& tracer_ = obs::Tracer::global();
  obs::MetricsRegistry& registry_ = obs::MetricsRegistry::global();
  const std::uint64_t deadline_ns_;
  FaultInjector* const injector_;
  /// Level-1/2 scans use a coarser pyramid derived from the system's params.
  det::SlidingWindowParams degraded_sliding_;

  std::vector<std::unique_ptr<StreamState>> streams_;
  std::vector<StreamCounters> counters_;
  /// Latency of admitted (non-shed) frames only: the number the overload
  /// SLO protects, since shedding keeps THIS under the budget.
  obs::Histogram& admitted_latency_;
  const StageSeries ingest_stage_, control_stage_, detect_stage_,
      report_stage_;

  std::atomic<bool> flight_dump_requested_{false};
  std::unique_ptr<obs::TelemetryExporter> telemetry_;

  BoundedQueue<DetectTask> detect_q_;
  BoundedQueue<ReportTask> report_q_;
  // Per-stream collector state, touched only by the collector thread: the
  // report slots, the frame outcomes and the coast ledgers.
  std::vector<std::vector<core::AdaptiveFrameReport>> slots_;
  std::vector<std::vector<bool>> filled_;
  std::vector<FrameOutcomes> outcomes_;
  std::vector<CoastLedger> ledgers_;

  std::atomic<std::size_t> next_source_{0};
  std::atomic<int> live_ingest_, live_detect_;
  std::atomic<bool> watchdog_stop_{false};
  std::vector<std::thread> workers_;
  std::thread watchdog_thread_;
};

ServeRun::ServeRun(const core::AdaptiveSystem& system,
                   const StreamServerConfig& config,
                   const StreamServer::HealthCallback& health_callback,
                   std::vector<std::unique_ptr<FrameSource>> sources)
    : system_(system),
      config_(config),
      sources_(std::move(sources)),
      n_streams_(static_cast<int>(sources_.size())),
      deadline_ns_(static_cast<std::uint64_t>(
          std::max(0.0, config.slo.frame_budget_ms) * 1e6)),
      injector_(config.fault_injector),
      degraded_sliding_(system.config().sliding),
      admitted_latency_(registry_.histogram(
          "runtime.frame.admitted_latency_ns", config.metric_labels)),
      ingest_stage_(registry_, config.metric_labels, "ingest"),
      control_stage_(registry_, config.metric_labels, "control"),
      detect_stage_(registry_, config.metric_labels, "detect"),
      report_stage_(registry_, config.metric_labels, "report"),
      detect_q_(config.queue_capacity, config.detect_policy),
      report_q_(config.queue_capacity, OverflowPolicy::Block),
      slots_(sources_.size()),
      filled_(sources_.size()),
      outcomes_(sources_.size()),
      ledgers_(sources_.size()),
      live_ingest_(config.ingest_workers),
      live_detect_(config.detect_workers) {
  if (injector_ != nullptr)
    for (int s = 0; s < n_streams_; ++s)
      sources_[static_cast<std::size_t>(s)] = injector_->wrap(
          s, std::move(sources_[static_cast<std::size_t>(s)]));
  degraded_sliding_.stride_cells =
      std::max(1, degraded_sliding_.stride_cells) * kCoarseStrideMultiplier;
  degraded_sliding_.max_levels =
      std::min(degraded_sliding_.max_levels, kCoarseMaxLevels);
  build_streams();

  // Tail sampler + flight recorder, fresh per serve and fed only the chains
  // of the trace ids this serve issued, so their contents describe exactly
  // this run, whatever else (a neighbour shard, an earlier serve) left in
  // the tracer's rings. The sampler is marked from the collector mid-run
  // and ingests assembled chains once writers have quiesced; the recorder
  // also collects telemetry rows and SLO transitions as they happen.
  obs::TraceSamplerConfig sc;
  sc.deadline_ns = deadline_ns_;
  sc.head_sample_every = kTraceHeadSampleEvery;
  sc.max_retained = kTraceMaxRetained;
  sampler = std::make_shared<obs::TraceSampler>(sc);
  obs::FlightRecorderConfig fc;
  fc.max_frames_per_stream = kFlightFramesPerStream;
  recorder = std::make_shared<obs::FlightRecorder>(fc);
  recorder->set_config_json("{\"streams\":" + std::to_string(n_streams_) +
                             "," + config_json_fields(config_) + "}");

  build_ladder();
  if (config_.slo.enabled) build_monitors(health_callback);
}

// Label set of stream s: the configured extra labels (shard= from the
// sharded front door) plus stream=<name>. labeled_name() sorts keys, so
// insertion order here is irrelevant.
obs::Labels ServeRun::stream_labels(int s) const {
  obs::Labels labels = config_.metric_labels;
  labels.emplace_back("stream", stream_name(config_, s));
  return labels;
}

// Per-stream metrics are labeled series (stream=<id>); the fleet view under
// the plain base names ("runtime.frames", "runtime.frame.latency_ns") is
// produced by MetricsRegistry::rollup(), per telemetry sample while serving
// and unconditionally in finalise().
void ServeRun::build_streams() {
  counters_.resize(sources_.size());
  streams_.reserve(sources_.size());
  const std::uint64_t serve_start_ns = tracer_.now_ns();
  for (int s = 0; s < n_streams_; ++s) {
    streams_.push_back(std::make_unique<StreamState>(system_));
    streams_.back()->last_progress_ns.store(serve_start_ns,
                                            std::memory_order_relaxed);
    const obs::Labels labels = stream_labels(s);
    StreamCounters& c = counters_[static_cast<std::size_t>(s)];
    c.frames = &registry_.counter("runtime.frames", labels);
    c.deadline_miss = &registry_.counter("runtime.deadline_miss", labels);
    c.backpressure_drops =
        &registry_.counter("runtime.backpressure_drops", labels);
    c.reconfig_drops = &registry_.counter("runtime.reconfig_drops", labels);
    c.reconfigs = &registry_.counter("runtime.reconfigs", labels);
    c.latency = &registry_.histogram("runtime.frame.latency_ns", labels);
    c.shed = &registry_.counter("runtime.shed", labels);
    c.coasted = &registry_.counter("runtime.coasted", labels);
    c.degraded_scans = &registry_.counter("runtime.degraded_scans", labels);
    c.garbage = &registry_.counter("runtime.garbage_frames", labels);
    c.source_retries = &registry_.counter("runtime.source_retries", labels);
    c.degrade_level = &registry_.gauge("runtime.degrade.level", labels);
    c.degrade_level->set(0.0);
  }
}

// Every ladder transition becomes a labeled gauge move, an instant span on
// the tracer (so retained chains show WHY fidelity changed), and a
// flight-recorder transition row (reusing the HealthTransition record with
// a "/degrade" entity suffix). The callback captures only objects that
// outlive the run: the controller stays with the server after it.
void ServeRun::build_ladder() {
  admission =
      std::make_shared<AdmissionController>(n_streams_, config_.admission);
  admission->set_transition_callback(
      [recorder = recorder, counters = counters_](const DegradeTransition& t) {
        const auto us = static_cast<std::size_t>(t.stream);
        if (us < counters.size())
          counters[us].degrade_level->set(
              static_cast<double>(static_cast<int>(t.to)));
        obs::ScopedSpan span("degrade_transition", "runtime/admission",
                             {{"stream", t.stream},
                              {"from", static_cast<std::int64_t>(t.from)},
                              {"to", static_cast<std::int64_t>(t.to)}});
        obs::HealthTransition h;
        h.entity = stream_entity(t.stream) + "/degrade";
        h.from = obs::HealthState::Healthy;
        h.to = t.to == DegradeLevel::Full ? obs::HealthState::Healthy
                                          : obs::HealthState::Degraded;
        h.t_ns = t.t_ns;
        h.reason = std::string(to_string(t.from)) + " -> " + to_string(t.to) +
                   " (" + t.reason + ")";
        recorder->record_transition(h);
      });
}

// SLO health monitoring: one monitor per stream over the standard rule
// set, driven by a TelemetryExporter sampling the global registry. Each
// sample window's counter deltas are evaluated against the thresholds,
// with the hysteresis config damping flapping.
void ServeRun::build_monitors(
    const StreamServer::HealthCallback& health_callback) {
  for (int s = 0; s < n_streams_; ++s) {
    auto monitor = std::make_unique<obs::SloMonitor>(
        stream_entity(s),
        obs::standard_stream_rules_labeled(
            stream_labels(s), config_.slo.deadline_miss_degraded,
            config_.slo.deadline_miss_unhealthy, config_.slo.drop_rate_degraded,
            config_.slo.drop_rate_unhealthy),
        config_.slo.hysteresis);
    // Every transition feeds the flight recorder; a transition to UNHEALTHY
    // requests a bundle dump, written by finalise() once the breaching
    // frames' chains are complete. The user's callback chains after.
    monitor->set_callback([this, s, health_callback](
                              const obs::HealthTransition& t) {
      recorder->record_transition(t);
      if (t.to == obs::HealthState::Unhealthy)
        flight_dump_requested_.store(true, std::memory_order_relaxed);
      if (health_callback) health_callback(s, t);
    });
    monitors.push_back(std::move(monitor));
  }
  obs::TelemetryConfig tc;
  tc.period = config_.slo.telemetry_period;
  tc.jsonl_path = config_.slo.telemetry_jsonl;
  tc.rollup_before_sample = true;  // rows carry per-stream AND fleet view
  // Health-driven ladder movement: after the monitors digest a window,
  // their states feed the admission controller, which moves levels on them
  // only when admission control is on.
  tc.on_sample = [this](const obs::TelemetrySample* prev,
                        const obs::TelemetrySample& cur) {
    recorder->record_telemetry_row(obs::to_json(cur));
    if (prev == nullptr) return;  // a window needs two samples
    std::vector<obs::HealthState> states;
    states.reserve(monitors.size());
    for (const auto& m : monitors) {
      m->observe(*prev, cur);
      states.push_back(m->state());
    }
    admission->on_health_windows(states, cur.t_ns);
  };
  telemetry_ = std::make_unique<obs::TelemetryExporter>(registry_, tc);
}

void ServeRun::launch() {
  if (telemetry_) telemetry_->start();
  if (config_.watchdog.enabled)
    watchdog_thread_ = std::thread(&ServeRun::watchdog, this);
  for (int i = 0; i < config_.ingest_workers; ++i)
    workers_.emplace_back(&ServeRun::ingest, this);
  for (int i = 0; i < config_.detect_workers; ++i)
    workers_.emplace_back(&ServeRun::detect, this);
  workers_.emplace_back(&ServeRun::collect, this);
}

// A launch() cut short by an exception (a thread that failed to start)
// leaves workers parked on the queues: closing them lets every started
// thread finish and be joined.
ServeRun::~ServeRun() {
  detect_q_.close();
  report_q_.close();
  join();
}

void ServeRun::join() {
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  if (watchdog_thread_.joinable()) {
    watchdog_stop_.store(true, std::memory_order_relaxed);
    watchdog_thread_.join();
  }
}

// --- stage 1: ingest + control ---------------------------------------
// Each worker claims whole sources, so a stream's frames leave one thread
// in index order and its control step runs right there, as the paper's ARM
// controller decides each frame's configuration as it is captured. Each
// frame gets a fresh trace id here: the ingest span (the pull only) is the
// root of the frame's causal chain, and the control span parents on it.
void ServeRun::ingest() {
  for (std::size_t s = next_source_.fetch_add(1); s < sources_.size();
       s = next_source_.fetch_add(1))
    ingest_stream(static_cast<int>(s));
  if (live_ingest_.fetch_sub(1) == 1) detect_q_.close();
}

void ServeRun::ingest_stream(int s) {
  FrameSource& src = *sources_[static_cast<std::size_t>(s)];
  StreamState& state = stream(s);
  state.ingest_started.store(true, std::memory_order_relaxed);
  state.last_progress_ns.store(tracer_.now_ns(), std::memory_order_relaxed);
  int index = 0;
  // A watchdog-fired stream is abandoned at the next opportunity: its
  // remaining frames would only be shed anyway, and an intermittently
  // stalling source stops occupying this worker.
  while (!state.watchdog_fired.load(std::memory_order_relaxed)) {
    const obs::TraceScope root(
        {tracer_.enabled() ? obs::Tracer::new_trace_id() : 0, 0});
    DetectTask dt;
    {
      obs::ScopedSpan span("ingest_frame", "runtime/ingest",
                           {{"stream", s}, {"frame", index}});
      const Clock::time_point t0 = Clock::now();
      std::optional<data::SequenceFrame> meta = pull(src, s);
      if (!meta) break;
      ingest_stage_.latency->record(Clock::now() - t0);
      if (!std::isfinite(meta->light_level)) {
        // Garbage in, nothing out: refused BEFORE an index is assigned, so
        // the control plane's frame numbering stays dense and healthy
        // streams are unaffected bit for bit.
        state.garbage_frames.fetch_add(1);
        counters_[static_cast<std::size_t>(s)].garbage->inc();
        continue;
      }
      dt.stream = s;
      dt.meta = std::move(*meta);
      dt.trace = span.context();
      dt.ingest_ns = tracer_.now_ns();
    }
    if (dt.trace.trace_id != 0) state.trace_ids.push_back(dt.trace.trace_id);
    ingest_stage_.processed->inc();
    control_frame(state, index++, std::move(dt));
  }
  state.frames_ingested.store(index);
}

// The next frame of source s, or nullopt at its end. Transient source
// failures retry with exponential backoff; past kSourceMaxAttempts (or on a
// non-transient exception) the stream is truncated here rather than
// wedging the serve.
std::optional<data::SequenceFrame> ServeRun::pull(FrameSource& src, int s) {
  StreamState& state = stream(s);
  obs::Counter& retries =
      *counters_[static_cast<std::size_t>(s)].source_retries;
  double backoff_ms = kSourceRetryBackoffMs;
  for (int attempts = 1;; ++attempts) {
    try {
      return src.next();
    } catch (const TransientSourceError&) {
      if (attempts >= kSourceMaxAttempts) break;
      state.source_retries.fetch_add(1);
      retries.inc();
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
      backoff_ms *= kSourceRetryBackoffMultiplier;
    } catch (const std::exception&) {
      break;
    }
  }
  state.source_failed.store(true, std::memory_order_relaxed);
  return std::nullopt;
}

// One frame through the control plane, on the ingest worker that owns its
// stream.
void ServeRun::control_frame(StreamState& state, int index, DetectTask&& dt) {
  const obs::TraceScope scope(dt.trace);
  obs::ScopedSpan span("control_frame", "runtime/control",
                       {{"stream", dt.stream}, {"frame", index}});
  const Clock::time_point t0 = Clock::now();
  dt.step = state.session.control_step(dt.meta);
  control_stage_.record(t0);
  span.arg("mode", static_cast<std::int64_t>(dt.step.sensed));
  dt.trace = span.context();
  state.last_progress_ns.store(tracer_.now_ns(), std::memory_order_relaxed);

  // The admission verdict is taken here, per-stream sequential, so a forced
  // level (fault plan) keyed on the frame index yields a deterministic
  // transition sequence.
  const std::optional<int> forced =
      injector_ != nullptr
          ? injector_->forced_degrade_level(dt.stream, dt.step.index)
          : std::nullopt;
  dt.decision =
      admission->decide(dt.stream, dt.step.index, tracer_.now_ns(), forced);
  if (!dt.decision.admit) {
    emit_unscanned(std::move(dt), true);
    return;
  }
  if (dt.decision.coast) {
    // Level-2 coast: no pixel work, so no detect-queue slot. The collector
    // evaluates the frame once its stream's tracker reaches it.
    ReportTask out;
    out.stream = dt.stream;
    out.ingest_ns = dt.ingest_ns;
    out.coast = std::move(dt);
    report_q_.push(std::move(out));
    return;
  }
  // The queue hands back the stale task DropOldest evicts, so no frame
  // vanishes.
  std::optional<DetectTask> displaced;
  detect_q_.push(std::move(dt), &displaced);
  if (displaced) emit_unscanned(std::move(*displaced), false);
}

// --- stage 2: detect ---------------------------------------------------
// One loop for every configuration. A worker pops a frame; with the gather
// on (scan_pool set and cross_stream_batching) it adds whatever is ALREADY
// queued, across every stream, up to detect_batch_max frames, so a sparse
// queue costs nothing. It runs one frame inline and more as one indexed
// wave on scan_pool: the frames are independent const evaluations.
void ServeRun::detect() {
  const bool gather =
      config_.cross_stream_batching && config_.scan_pool != nullptr;
  const std::size_t gather_max =
      gather ? static_cast<std::size_t>(std::max(1, config_.detect_batch_max))
             : 1;
  std::vector<DetectTask> batch;
  DetectTask extra;
  while (std::optional<DetectTask> first = detect_q_.pop()) {
    batch.clear();
    batch.push_back(std::move(*first));
    while (batch.size() < gather_max && detect_q_.try_pop(extra))
      batch.push_back(std::move(extra));
    if (batch.size() == 1) {
      detect_frame(batch.front());
    } else {
      config_.scan_pool->run_indexed(
          static_cast<int>(batch.size()),
          [&](int i) { detect_frame(batch[static_cast<std::size_t>(i)]); });
    }
  }
  if (live_detect_.fetch_sub(1) == 1) report_q_.close();
}

// One frame's pixel-level evaluation. Everything it touches is const,
// atomic or an MPMC queue, so it may run on any thread.
void ServeRun::detect_frame(DetectTask& task) {
  const obs::TraceScope scope(task.trace);
  obs::ScopedSpan span(
      "detect_frame", "runtime/detect",
      {{"stream", task.stream},
       {"frame", task.step.index},
       {"mode", static_cast<std::int64_t>(task.step.sensed)}});
  const Clock::time_point t0 = Clock::now();
  const DegradeLevel level = task.decision.level;
  ReportTask out;
  out.stream = task.stream;
  out.trace = span.context();
  out.ingest_ns = task.ingest_ns;
  // Levels 1 and 2 scan the coarse pyramid (level 3 never reaches here).
  std::optional<core::FrameDetections> boxes = system_.scan_frame(
      task.step, task.meta,
      level == DegradeLevel::Full ? system_.config().sliding
                                  : degraded_sliding_);
  out.report = system_.report_frame(task.step, task.meta, boxes);
  out.report.degrade_level = static_cast<int>(level);
  // The scan's boxes feed the stream's tracker through the coast ledger.
  if (boxes) out.dets = std::move(boxes->vehicles);
  // The modelled PL accelerator occupies the worker on frames whose vehicle
  // engine ran a scan; an injected slowdown on every frame.
  double sleep_ms = 0.0;
  if (config_.simulated_accel_ms > 0.0 && task.step.record.vehicle_processed)
    sleep_ms = config_.simulated_accel_ms;
  if (injector_ != nullptr)
    sleep_ms += injector_->detect_slowdown_ms(task.stream, task.step.index);
  if (sleep_ms > 0.0)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms));
  stream(task.stream).last_progress_ns.store(tracer_.now_ns(),
                                             std::memory_order_relaxed);
  detect_stage_.record(t0);
  report_q_.push(std::move(out));
}

// A frame that never reaches the scan still produces a report (with no
// boxes), never a silent loss: the vehicle engine misses it. `shed`:
// refused by admission (the ladder's level 3 or the token bucket), on the
// ingest worker so the frame skips the detect queue entirely. Otherwise it overflowed the detect queue: the
// serving-layer twin of the paper's reconfiguration drop. Either way its
// stream's tracker sees it as an empty update, exactly what the tracker's
// miss-coasting is for.
void ServeRun::emit_unscanned(DetectTask&& task, bool shed) {
  const obs::TraceScope scope(task.trace);
  obs::ScopedSpan span(
      shed ? "shed_frame" : "drop_frame",
      shed ? "runtime/control" : "runtime/detect",
      {{"stream", task.stream},
       {"frame", task.step.index},
       {"level", static_cast<std::int64_t>(task.decision.level)}});
  task.step.record.vehicle_processed = false;
  ReportTask out;
  out.stream = task.stream;
  out.report = system_.report_frame(task.step, task.meta, std::nullopt);
  out.report.degrade_level = static_cast<int>(task.decision.level);
  out.trace = span.context();
  out.ingest_ns = task.ingest_ns;
  out.backpressure_dropped = !shed;
  out.shed = shed;
  report_q_.push(std::move(out));
}

// --- stage 3: report collector -----------------------------------------
// The one thread every frame reaches, exactly once. It keeps each stream's
// coast ledger: a frame that arrives with its report is finished at once
// and its boxes wait for the frontier; a coast frame waits there itself and
// is evaluated and finished when the frontier reaches it.
void ServeRun::collect() {
  while (std::optional<ReportTask> task = report_q_.pop()) {
    CoastLedger& ledger = ledgers_[static_cast<std::size_t>(task->stream)];
    const int index =
        task->coast ? task->coast->step.index : task->report.index;
    if (!task->coast) finish(*task);
    ledger.waiting.emplace(index, std::move(*task));
    for (auto it = ledger.waiting.find(ledger.fed);
         it != ledger.waiting.end(); it = ledger.waiting.find(ledger.fed)) {
      if (it->second.coast)
        coast_frame(ledger, it->second);
      else
        ledger.tracker.update(it->second.dets);
      ++ledger.fed;
      ledger.waiting.erase(it);
    }
  }
}

// A level-2 coast frame, once every earlier frame of its stream has fed
// the tracker: no render, no scan, no simulated accelerator. The tracker
// coasts every live box forward by its last motion, and the confirmed
// tracks are the frame's boxes.
void ServeRun::coast_frame(CoastLedger& ledger, ReportTask& task) {
  DetectTask& dt = *task.coast;
  {
    const obs::TraceScope scope(dt.trace);
    obs::ScopedSpan span("coast_frame", "runtime/detect",
                         {{"stream", dt.stream},
                          {"frame", dt.step.index},
                          {"mode", static_cast<std::int64_t>(dt.step.sensed)}});
    core::FrameDetections tracked;
    for (const det::Track& t : ledger.tracker.update({})) {
      det::Detection d;
      d.box = t.box;
      d.score = t.last_score;
      d.class_id = t.class_id;
      tracked.vehicles.push_back(d);
    }
    task.report = system_.report_frame(dt.step, dt.meta, std::move(tracked));
    task.report.degrade_level = static_cast<int>(dt.decision.level);
    task.report.detect_coasted = true;
    task.trace = span.context();
  }
  finish(task);
}

// One frame's end: its latency, its fate counted once, its report slotted.
void ServeRun::finish(ReportTask& task) {
  const obs::TraceScope scope(task.trace);
  obs::ScopedSpan span("collect_report", "runtime/report",
                       {{"stream", task.stream},
                        {"frame", task.report.index}});
  const Clock::time_point t0 = Clock::now();
  const auto us = static_cast<std::size_t>(task.stream);
  const auto index = static_cast<std::size_t>(task.report.index);
  if (index >= slots_[us].size()) {
    slots_[us].resize(index + 1);
    filled_[us].resize(index + 1, false);
  }
  // Critical-path latency of this frame: ingest-enqueue to the moment its
  // report is final, on the tracer timebase. Feeds the latency histogram,
  // the deadline counter the frame_deadline SLO rule watches, and the span
  // (as an arg) so traces carry the number too.
  const std::uint64_t now_ns = tracer_.now_ns();
  const std::uint64_t latency_ns =
      now_ns >= task.ingest_ns ? now_ns - task.ingest_ns : 0;
  span.arg("latency_us", static_cast<std::int64_t>(latency_ns / 1000u));
  StreamCounters& c = counters_[us];
  FrameOutcomes& o = outcomes_[us];
  c.latency->record_ns(latency_ns);
  if (!task.shed) admitted_latency_.record_ns(latency_ns);
  c.frames->inc();
  const bool missed = deadline_ns_ > 0 && latency_ns > deadline_ns_;
  if (missed) {
    c.deadline_miss->inc();
    ++o.deadline_misses;
  }
  // Tail sampling: a deadline miss, a drop or a shed makes this frame's
  // chain worth keeping verbatim when the rings are ingested after the run.
  if (missed || task.backpressure_dropped || task.shed)
    sampler->mark_interesting(task.trace.trace_id);
  // Each frame lands in at most one of the four fates below.
  if (task.backpressure_dropped) {
    c.backpressure_drops->inc();
    ++o.backpressure_drops;
  } else if (task.shed) {
    c.shed->inc();
    ++o.shed;
  } else if (task.report.detect_coasted) {
    c.coasted->inc();
    ++o.coasted;
  } else if (task.report.degrade_level > 0) {
    c.degraded_scans->inc();
    ++o.degraded_scans;
  }
  // Shed frames are an explicit admission verdict, not a reconfig cost;
  // keep them out of the reconfiguration-loss SLO rule.
  if (!task.report.vehicle_processed && !task.backpressure_dropped &&
      !task.shed)
    c.reconfig_drops->inc();
  if (task.report.reconfig_triggered) c.reconfigs->inc();
  slots_[us][index] = std::move(task.report);
  filled_[us][index] = true;
  streams_[us]->collected.fetch_add(1, std::memory_order_relaxed);
  streams_[us]->last_progress_ns.store(now_ns, std::memory_order_relaxed);
  report_stage_.record(t0);
}

// --- liveness watchdog -------------------------------------------------
// Polls per-stream progress timestamps five times per timeout (at least
// every 50 ms, at most every 1 ms); a stream that is started, incomplete
// and silent past the timeout is pinned to Shed (degrade level 3) and its
// source abandoned: the wedge becomes an accounted event instead of a hung
// serve.
void ServeRun::watchdog() {
  using std::chrono::milliseconds;
  const milliseconds timeout =
      std::max(milliseconds(1), config_.watchdog.timeout);
  const milliseconds poll =
      std::clamp(timeout / 5, milliseconds(1), milliseconds(50));
  const auto timeout_ns = static_cast<std::uint64_t>(
      std::chrono::nanoseconds(timeout).count());
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(poll);
    const std::uint64_t now = tracer_.now_ns();
    for (int s = 0; s < n_streams_; ++s) {
      StreamState& st = stream(s);
      if (st.watchdog_fired.load(std::memory_order_relaxed)) continue;
      if (!st.ingest_started.load(std::memory_order_relaxed)) continue;
      const int ingested = st.frames_ingested.load();
      if (ingested >= 0 &&
          st.collected.load(std::memory_order_relaxed) == ingested)
        continue;
      const std::uint64_t last =
          st.last_progress_ns.load(std::memory_order_relaxed);
      if (now > last && now - last > timeout_ns) {
        st.watchdog_fired.store(true, std::memory_order_relaxed);
        admission->force_level(s, DegradeLevel::Shed, "watchdog");
        registry_.counter("runtime.watchdog_fired", stream_labels(s)).inc();
      }
    }
  }
}

std::string ServeRun::finalise(std::uint64_t serve_id) {
  detect_stage_.queue_high_water->set(
      static_cast<double>(detect_q_.stats().high_water));
  report_stage_.queue_high_water->set(
      static_cast<double>(report_q_.stats().high_water));

  // Fold the labeled per-stream series into the fleet base names: even with
  // monitoring disabled, direct post-serve readers of e.g.
  // "runtime.frame.latency_ns" see the fleet aggregate.
  registry_.rollup();

  // One final telemetry window catches counters the last periodic sample
  // missed, then the monitors' verdicts become part of the results.
  if (telemetry_) telemetry_->stop();

  // Writers have quiesced: feed the sampler and the recorder this serve's
  // chains from the tracer rings. snapshot() (not drain()) leaves the spans
  // in place for callers that export their own traces after serve().
  std::vector<std::uint64_t> ids;
  for (const auto& st : streams_)
    ids.insert(ids.end(), st->trace_ids.begin(), st->trace_ids.end());
  if (!ids.empty()) {
    std::sort(ids.begin(), ids.end());
    std::vector<obs::SpanRecord> spans = tracer_.snapshot();
    std::erase_if(spans, [&ids](const obs::SpanRecord& r) {
      return !std::binary_search(ids.begin(), ids.end(), r.trace_id);
    });
    const std::vector<obs::FrameTrace> chains =
        obs::assemble_frame_traces(spans);
    sampler->ingest(chains);
    for (const obs::FrameTrace& chain : chains) recorder->record_frame(chain);
  }

  // Write a dump requested by an UNHEALTHY transition, now that the
  // breaching frames' chains are in the recorder.
  const std::string& dir = config_.slo.flight_dump_dir;
  if (!flight_dump_requested_.load(std::memory_order_relaxed) || dir.empty())
    return {};
  const std::string path =
      dir + "/flight_bundle_serve" + std::to_string(serve_id) + ".json";
  return recorder->dump_to_file(path, "health transition to UNHEALTHY")
             ? path
             : std::string();
}

std::vector<StreamResult> ServeRun::assemble() {
  std::vector<StreamResult> results(sources_.size());
  for (int s = 0; s < n_streams_; ++s) {
    const auto us = static_cast<std::size_t>(s);
    StreamState& state = stream(s);
    StreamResult& result = results[us];
    result.stream = s;
    const int expected = state.frames_ingested.load();
    if (static_cast<int>(slots_[us].size()) != expected)
      throw std::logic_error("StreamServer: stream " + std::to_string(s) +
                             " lost frames (" +
                             std::to_string(slots_[us].size()) + "/" +
                             std::to_string(expected) + ")");
    for (std::size_t i = 0; i < filled_[us].size(); ++i)
      if (!filled_[us][i])
        throw std::logic_error("StreamServer: stream " + std::to_string(s) +
                               " missing frame " + std::to_string(i));
    result.report.frames = std::move(slots_[us]);
    result.report.reconfigs = state.session.reconfigs();
    result.report.log = state.session.log();
    const FrameOutcomes& outcomes = outcomes_[us];
    result.backpressure_drops = outcomes.backpressure_drops;
    result.deadline_misses = outcomes.deadline_misses;
    result.shed_frames = outcomes.shed;
    result.coasted_frames = outcomes.coasted;
    result.degraded_scans = outcomes.degraded_scans;
    result.garbage_frames = state.garbage_frames.load();
    result.source_retries = state.source_retries.load();
    result.source_failed = state.source_failed.load();
    result.watchdog_fired = state.watchdog_fired.load();
    result.degrade_level = admission->level(s);
    result.degrade_transitions = admission->transitions(s);
    if (!monitors.empty()) {
      result.health = monitors[us]->state();
      result.health_transitions = monitors[us]->transitions();
    }
  }
  return results;
}

}  // namespace

StreamServer::StreamServer(const core::AdaptiveSystem& system,
                           StreamServerConfig config)
    : system_(&system), config_(config) {
  config_.ingest_workers = std::max(1, config_.ingest_workers);
  config_.detect_workers = std::max(1, config_.detect_workers);
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (!config_.ops.enabled) return;
  ShardedServerConfig fleet;  // a fleet of one shard: this server
  fleet.shards = 1;
  fleet.shard = config_;
  ops_ = std::make_unique<OpsSurface>(
      "stream-server", std::move(fleet), serve_count_,
      [this] { return std::vector<ObsView>{obs_view()}; });
}

StreamServer::~StreamServer() = default;

obs::OpsServer* StreamServer::ops_server() const {
  return ops_ ? &ops_->server() : nullptr;
}

obs::SampleProfiler* StreamServer::profiler() const {
  return ops_ ? &ops_->profiler() : nullptr;
}

std::vector<StreamResult> StreamServer::serve_sequences(
    const std::vector<data::DriveSequence>& sequences) {
  std::vector<std::unique_ptr<FrameSource>> sources;
  sources.reserve(sequences.size());
  for (const data::DriveSequence& s : sequences) sources.push_back(make_source(s));
  return serve(std::move(sources));
}

std::vector<StreamResult> StreamServer::serve(
    std::vector<std::unique_ptr<FrameSource>> sources) {
  const std::size_t n_streams = sources.size();
  if (n_streams == 0) return {};
  ServeRun run(*system_, config_, health_callback_, std::move(sources));
  std::uint64_t serve_id = 0;
  {
    // Publish before launch: the ops plane reads levels, health and traces
    // from these objects live. The previous serve's go here.
    std::lock_guard<std::mutex> lock(obs_mutex_);
    stream_count_ = n_streams;
    admission_ = run.admission;
    admission_->set_fleet_pressure(fleet_pressure_);
    sampler_ = run.sampler;
    recorder_ = run.recorder;
    monitors_ = run.monitors;
    serve_id = serve_count_.fetch_add(1) + 1;
  }
  run.launch();
  run.join();
  last_flight_bundle_path_ = run.finalise(serve_id);
  return run.assemble();
}

StreamServer::ObsView StreamServer::obs_view() const {
  std::lock_guard<std::mutex> lock(obs_mutex_);
  ObsView view{std::vector<StreamView>(stream_count_), sampler_, recorder_};
  for (std::size_t s = 0; s < stream_count_; ++s) {
    StreamView& row = view.streams[s];
    const int i = static_cast<int>(s);
    row.name = stream_name(config_, i);
    if (s < monitors_.size()) row.health = monitors_[s]->state();
    row.level = admission_->level(i);
    row.stats = admission_->stats(i);
  }
  return view;
}

void StreamServer::set_fleet_pressure(bool pressure) {
  std::lock_guard<std::mutex> lock(obs_mutex_);
  // Kept for the next serve's controller too: a front-door shard whose
  // serve has not yet published its controller still starts under it.
  fleet_pressure_ = pressure;
  if (admission_) admission_->set_fleet_pressure(pressure);
}

std::vector<obs::HealthState> StreamServer::live_stream_health() const {
  std::vector<obs::HealthState> states;
  for (const StreamView& s : obs_view().streams) states.push_back(s.health);
  return states;
}

}  // namespace avd::runtime
