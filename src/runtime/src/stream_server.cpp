#include "avd/runtime/stream_server.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "avd/obs/build_info.hpp"
#include "avd/obs/frame_trace.hpp"
#include "avd/obs/json.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/telemetry.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/fault_injection.hpp"
#include "avd/runtime/thread_pool.hpp"

namespace avd::runtime {
namespace {

using Clock = std::chrono::steady_clock;

/// A frame after the control plane, waiting for pixel-level detection.
struct DetectTask {
  int stream = 0;
  core::ControlStep step;
  data::SequenceFrame meta;
  obs::TraceContext trace;      ///< parented on the control span
  std::uint64_t ingest_ns = 0;  ///< carried from the FrameTask
  AdmissionDecision decision;   ///< ladder verdict (defaults: full fidelity)
};

/// A finished per-frame report heading to the collector.
struct ReportTask {
  int stream = 0;
  core::AdaptiveFrameReport report;
  obs::TraceContext trace;      ///< parented on the detect span
  std::uint64_t ingest_ns = 0;  ///< frame entry time (latency measures here)
  bool backpressure_dropped = false;
  bool shed = false;            ///< refused by admission (never ran detect)
};

/// One frame's entry in the coast ledger (below): either the detections a
/// scan produced, or a placeholder for a frame the tracker must coast.
struct CoastEntry {
  bool coast = false;
  std::vector<det::Detection> dets;  ///< scan output (coast = false)
};

/// Mutable per-stream state: the sequential control-plane session plus the
/// reorder buffer that serialises MPMC-scheduled frames back into index
/// order. Guarded by its own mutex; different streams never contend.
struct StreamState {
  StreamState(const core::AdaptiveSystem& system,
              const det::TrackerConfig& tracker_config)
      : session(system.begin_session()), tracker(tracker_config) {}

  std::mutex mutex;
  core::AdaptiveSystem::StepSession session;
  int next_index = 0;
  std::map<int, FrameTask> pending;  // out-of-order frames (trace rides along)
  std::atomic<std::uint64_t> backpressure_drops{0};
  std::atomic<std::uint64_t> deadline_misses{0};
  std::atomic<int> frames_ingested{0};
  // Fault / overload accounting (see StreamResult).
  std::atomic<std::uint64_t> garbage_frames{0};
  std::atomic<std::uint64_t> source_retries{0};
  std::atomic<bool> source_failed{false};
  std::atomic<bool> watchdog_fired{false};
  // Liveness watchdog inputs: tracer-ns of the last pipeline progress on
  // this stream, and completion markers so a finished stream is never fired.
  std::atomic<std::uint64_t> last_progress_ns{0};
  std::atomic<bool> ingest_started{false};
  std::atomic<bool> ingest_done{false};
  std::atomic<int> collected{0};
  // --- the coast ledger (ladder level 2) -------------------------------
  // The IouTracker must see every frame of the stream exactly once, in
  // index order, with the frame's scan detections (or an empty update for
  // coasted/shed/dropped frames). Detect workers finish frames out of
  // order, so entries park in `coast_pending` until the frontier
  // (`coast_done`) reaches them; advancing the frontier feeds the tracker
  // and materialises coast_results for coast frames. coast_mutex is a leaf
  // lock: nothing is acquired while holding it, so the control-stage edge
  // state.mutex -> coast_mutex (of any stream) cannot deadlock.
  std::mutex coast_mutex;
  std::condition_variable coast_cv;
  int coast_done = -1;  ///< highest frame index fed to the tracker
  std::map<int, CoastEntry> coast_pending;
  std::map<int, std::vector<det::Detection>> coast_results;
  det::IouTracker tracker;
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
  // Overload-control series (incremented only when the ladder is active).
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

}  // namespace

StreamServer::StreamServer(const core::AdaptiveSystem& system,
                           StreamServerConfig config)
    : system_(&system), config_(config) {
  config_.ingest_workers = std::max(1, config_.ingest_workers);
  config_.control_workers = std::max(1, config_.control_workers);
  config_.detect_workers = std::max(1, config_.detect_workers);
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.ops.enabled) {
    if (!(config_.ops.max_profile_seconds > 0.0))
      config_.ops.max_profile_seconds = 10.0;
    profiler_ = std::make_unique<obs::SampleProfiler>(config_.ops.profiler);
    ops_ = std::make_unique<obs::OpsServer>(config_.ops.server);
    install_ops_endpoints();
    if (!ops_->start())
      throw std::runtime_error(
          "StreamServer: ops server failed to bind " +
          config_.ops.server.bind_address + ":" +
          std::to_string(config_.ops.server.port));
  }
}

StreamServer::~StreamServer() {
  // Ops handler threads read the members below; take them down first. The
  // profiler's timer thread only touches the (global) tracer, but a window
  // left running would outlive its owner.
  if (ops_) ops_->stop();
  if (profiler_) profiler_->stop();
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
  const int n_streams = static_cast<int>(sources.size());
  std::vector<StreamResult> results(sources.size());
  for (int s = 0; s < n_streams; ++s)
    results[static_cast<std::size_t>(s)].stream = s;
  {
    std::lock_guard<std::mutex> lock(obs_mutex_);
    stream_health_.assign(sources.size(), obs::HealthState::Healthy);
    fleet_health_ = obs::HealthState::Healthy;
  }
  if (n_streams == 0) return results;

  obs::Tracer& tracer = obs::Tracer::global();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::uint64_t deadline_ns = static_cast<std::uint64_t>(
      std::max(0.0, config_.slo.frame_budget_ms) * 1e6);

  // Per-stream metrics are labeled series (stream=<id>); the fleet view
  // under the plain base names ("runtime.frames", "runtime.frame.latency_ns")
  // is produced by MetricsRegistry::rollup() — per telemetry sample while
  // serving and unconditionally before serve() returns.
  // --- the overload-control plane --------------------------------------
  // Ladder machinery engages when admission control is on, when the
  // watchdog needs a lever to pull, or when a fault plan may pin levels.
  // When inactive (the default) every ladder branch below is skipped and
  // the pipeline is byte-for-byte the pre-ladder one.
  FaultInjector* injector = config_.fault_injector;
  const bool ladder_active =
      config_.admission.enabled || config_.watchdog.enabled ||
      injector != nullptr;
  if (injector != nullptr)
    for (int s = 0; s < n_streams; ++s)
      sources[static_cast<std::size_t>(s)] = injector->wrap(
          s, std::move(sources[static_cast<std::size_t>(s)]));

  // Label set of stream s: the configured extra labels (shard= from the
  // sharded front door) plus stream=<global name> (the local index unless
  // stream_names says otherwise). labeled_name() sorts keys, so insertion
  // order here is irrelevant.
  const auto stream_labels = [this](int s) {
    obs::Labels labels = config_.metric_labels;
    const auto us = static_cast<std::size_t>(s);
    labels.emplace_back("stream", us < config_.stream_names.size()
                                      ? config_.stream_names[us]
                                      : std::to_string(s));
    return labels;
  };

  std::vector<std::unique_ptr<StreamState>> streams;
  std::vector<StreamCounters> counters(sources.size());
  streams.reserve(sources.size());
  const std::uint64_t serve_start_ns = tracer.now_ns();
  for (int s = 0; s < n_streams; ++s) {
    streams.push_back(std::make_unique<StreamState>(
        *system_, config_.admission.ladder.coast_tracker));
    streams.back()->last_progress_ns.store(serve_start_ns,
                                           std::memory_order_relaxed);
    const obs::Labels labels = stream_labels(s);
    StreamCounters& c = counters[static_cast<std::size_t>(s)];
    c.frames = &registry.counter("runtime.frames", labels);
    c.deadline_miss = &registry.counter("runtime.deadline_miss", labels);
    c.backpressure_drops =
        &registry.counter("runtime.backpressure_drops", labels);
    c.reconfig_drops = &registry.counter("runtime.reconfig_drops", labels);
    c.reconfigs = &registry.counter("runtime.reconfigs", labels);
    c.latency = &registry.histogram("runtime.frame.latency_ns", labels);
    if (ladder_active) {
      c.shed = &registry.counter("runtime.shed", labels);
      c.coasted = &registry.counter("runtime.coasted", labels);
      c.degraded_scans = &registry.counter("runtime.degraded_scans", labels);
      c.garbage = &registry.counter("runtime.garbage_frames", labels);
      c.source_retries = &registry.counter("runtime.source_retries", labels);
      c.degrade_level = &registry.gauge("runtime.degrade.level", labels);
      c.degrade_level->set(0.0);
    }
  }
  // Latency of admitted (non-shed) frames only — the number the overload
  // SLO protects: shedding keeps THIS under the budget. A shard server
  // (metric_labels set) records the labeled series instead and rollup()
  // derives the fleet base; a standalone server writes the base directly.
  obs::Histogram& admitted_latency =
      config_.metric_labels.empty()
          ? registry.histogram("runtime.frame.admitted_latency_ns")
          : registry.histogram("runtime.frame.admitted_latency_ns",
                               config_.metric_labels);
  const auto stage_series = [&](const char* stage) {
    obs::Labels labels = config_.metric_labels;
    labels.emplace_back("stage", stage);
    return StageSeries{
        &registry.histogram("runtime.stage.latency_ns", labels),
        &registry.counter("runtime.stage.processed", labels),
        &registry.gauge("runtime.stage.queue_high_water", labels)};
  };
  const StageSeries ingest_stage = stage_series("ingest");
  const StageSeries control_stage = stage_series("control");
  const StageSeries detect_stage = stage_series("detect");
  const StageSeries report_stage = stage_series("report");

  // Level-1/2 scans use a coarser pyramid derived from the system's params.
  det::SlidingWindowParams degraded_sliding = system_->config().sliding;
  degraded_sliding.stride_cells =
      std::max(1, degraded_sliding.stride_cells) *
      std::max(1, config_.admission.ladder.coarse_stride_multiplier);
  degraded_sliding.max_levels =
      std::min(degraded_sliding.max_levels,
               std::max(1, config_.admission.ladder.coarse_max_levels));

  AdmissionController* admission = nullptr;
  if (ladder_active) {
    auto controller = std::make_unique<AdmissionController>(
        n_streams, config_.admission);
    admission = controller.get();
    // Publish to the ops plane before workers start: /healthz and /statusz
    // read levels and stats from it live.
    std::lock_guard<std::mutex> lock(obs_mutex_);
    admission_ = std::move(controller);
  } else {
    std::lock_guard<std::mutex> lock(obs_mutex_);
    admission_.reset();
  }

  // --- tail sampler + flight recorder ----------------------------------
  // Fresh per serve() so their contents describe exactly this run. The
  // sampler is marked from the collector mid-run and ingests assembled
  // chains once writers have quiesced; the recorder additionally collects
  // telemetry rows and SLO transitions as they happen.
  {
    obs::TraceSamplerConfig sc;
    sc.deadline_ns = deadline_ns;
    sc.head_sample_every = config_.slo.trace_head_sample_every;
    sc.max_retained = config_.slo.trace_max_retained;
    auto sampler = std::make_unique<obs::TraceSampler>(sc);
    obs::FlightRecorderConfig fc;
    fc.max_frames_per_stream = config_.slo.flight_frames_per_stream;
    auto recorder = std::make_unique<obs::FlightRecorder>(fc);
    std::ostringstream cfg;
    cfg << "{\"streams\":" << n_streams
        << ",\"ingest_workers\":" << config_.ingest_workers
        << ",\"control_workers\":" << config_.control_workers
        << ",\"detect_workers\":" << config_.detect_workers
        << ",\"queue_capacity\":" << config_.queue_capacity
        << ",\"detect_policy\":\"" << to_string(config_.detect_policy)
        << "\",\"frame_budget_ms\":" << config_.slo.frame_budget_ms << '}';
    recorder->set_config_json(cfg.str());
    // Swap under the obs lock: ops handler threads may hold the previous
    // serve's sampler/recorder pointers mid-request otherwise.
    std::lock_guard<std::mutex> lock(obs_mutex_);
    sampler_ = std::move(sampler);
    recorder_ = std::move(recorder);
  }
  last_flight_bundle_path_.clear();
  const std::uint64_t serve_id = serve_count_.fetch_add(1) + 1;
  std::atomic<bool> flight_dump_requested{false};

  if (admission != nullptr) {
    // Every ladder transition becomes a labeled gauge move, an instant span
    // on the tracer (so retained chains show WHY fidelity changed), and a
    // flight-recorder transition row (reusing the HealthTransition record
    // with a "/degrade" entity suffix).
    obs::FlightRecorder* recorder = recorder_.get();
    std::vector<StreamCounters>* counter_ptr = &counters;
    admission->set_transition_callback(
        [recorder, counter_ptr](const DegradeTransition& t) {
          const auto us = static_cast<std::size_t>(t.stream);
          if (us < counter_ptr->size() &&
              (*counter_ptr)[us].degrade_level != nullptr)
            (*counter_ptr)[us].degrade_level->set(
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
          h.reason = std::string(to_string(t.from)) + " -> " +
                     to_string(t.to) + " (" + t.reason + ")";
          recorder->record_transition(h);
        });
  }

  // --- SLO health monitoring (optional) --------------------------------
  // One monitor per stream over the standard rule set, driven by an
  // always-on TelemetryExporter sampling the global registry: each sample
  // window's counter deltas are evaluated against the thresholds, with the
  // hysteresis config damping flapping.
  std::vector<std::unique_ptr<obs::SloMonitor>> monitors;
  std::unique_ptr<obs::TelemetryExporter> telemetry;
  if (config_.slo.enabled) {
    monitors.reserve(sources.size());  // moved into monitors_ once built
    for (int s = 0; s < n_streams; ++s) {
      auto monitor = std::make_unique<obs::SloMonitor>(
          stream_entity(s),
          obs::standard_stream_rules_labeled(
              stream_labels(s), config_.slo.deadline_miss_degraded,
              config_.slo.deadline_miss_unhealthy,
              config_.slo.drop_rate_degraded,
              config_.slo.drop_rate_unhealthy),
          config_.slo.hysteresis);
      // Every transition feeds the flight recorder; a transition to
      // UNHEALTHY requests a bundle dump, finalised once writers have
      // quiesced (so the breaching frames' chains are complete in it). The
      // user's callback chains after.
      const int stream = s;
      HealthCallback cb = health_callback_;
      obs::FlightRecorder* recorder = recorder_.get();
      auto* dump_requested = &flight_dump_requested;
      monitor->set_callback(
          [stream, cb, recorder, dump_requested](
              const obs::HealthTransition& t) {
            recorder->record_transition(t);
            if (t.to == obs::HealthState::Unhealthy)
              dump_requested->store(true, std::memory_order_relaxed);
            if (cb) cb(stream, t);
          });
      monitors.push_back(std::move(monitor));
    }
    obs::TelemetryConfig tc;
    tc.period = config_.slo.telemetry_period;
    tc.jsonl_path = config_.slo.telemetry_jsonl;
    tc.rollup_before_sample = true;  // rows carry per-stream AND fleet view
    obs::FlightRecorder* recorder = recorder_.get();
    // Raw pointers by value: the monitors move into monitors_ below and
    // outlive the exporter (stopped before the next serve() replaces them).
    std::vector<obs::SloMonitor*> monitor_ptrs;
    monitor_ptrs.reserve(monitors.size());
    for (auto& m : monitors) monitor_ptrs.push_back(m.get());
    // Health-driven ladder movement: after the monitors digest a window,
    // their states feed the admission controller (when admission control is
    // on — the watchdog/fault-plan levers work without it).
    AdmissionController* ladder =
        config_.admission.enabled ? admission : nullptr;
    tc.on_sample = [monitor_ptrs, recorder, ladder](
                       const obs::TelemetrySample* prev,
                       const obs::TelemetrySample& cur) {
      recorder->record_telemetry_row(obs::to_json(cur));
      if (prev == nullptr) return;  // a window needs two samples
      for (obs::SloMonitor* m : monitor_ptrs) m->observe(*prev, cur);
      if (ladder != nullptr) {
        std::vector<obs::HealthState> states;
        states.reserve(monitor_ptrs.size());
        for (obs::SloMonitor* m : monitor_ptrs) states.push_back(m->state());
        ladder->on_health_windows(states);
      }
    };
    telemetry = std::make_unique<obs::TelemetryExporter>(registry, tc);
    telemetry->start();
  }
  {
    // Publish this serve's monitors to the ops plane (/healthz reads live
    // states from them mid-run); empty when monitoring is disabled.
    std::lock_guard<std::mutex> lock(obs_mutex_);
    monitors_ = std::move(monitors);
  }

  BoundedQueue<FrameTask> control_q(config_.queue_capacity,
                                    OverflowPolicy::Block);
  BoundedQueue<DetectTask> detect_q(config_.queue_capacity,
                                    config_.detect_policy);
  BoundedQueue<ReportTask> report_q(config_.queue_capacity,
                                    OverflowPolicy::Block);

  // Per-frame report slots, written only by the collector thread.
  std::vector<std::vector<core::AdaptiveFrameReport>> slots(sources.size());
  std::vector<std::vector<bool>> filled(sources.size());

  std::atomic<std::size_t> next_source{0};
  std::atomic<int> live_ingest{config_.ingest_workers};
  std::atomic<int> live_control{config_.control_workers};
  std::atomic<int> live_detect{config_.detect_workers};

  // --- stage 1: ingest -------------------------------------------------
  // Each frame gets a fresh trace id here: the ingest span is the root of
  // the frame's causal chain, and the FrameTask carries {trace_id,
  // ingest-span id} across the queue so the control span parents on it.
  const auto ingest_loop = [&] {
    for (;;) {
      const std::size_t s = next_source.fetch_add(1);
      if (s >= sources.size()) break;
      FrameSource& src = *sources[s];
      StreamState& state = *streams[s];
      state.ingest_started.store(true, std::memory_order_relaxed);
      state.last_progress_ns.store(tracer.now_ns(), std::memory_order_relaxed);
      int index = 0;
      for (;;) {
        // A watchdog-fired stream is abandoned at the next opportunity: its
        // remaining frames would only be shed anyway, and an intermittently
        // stalling source stops occupying this worker.
        if (state.watchdog_fired.load(std::memory_order_relaxed)) break;
        const obs::TraceScope root(
            {tracer.enabled() ? obs::Tracer::new_trace_id() : 0, 0});
        obs::ScopedSpan span("ingest_frame", "runtime/ingest",
                             {{"stream", static_cast<std::int64_t>(s)},
                              {"frame", index}});
        const Clock::time_point t0 = Clock::now();
        // Transient source failures retry with exponential backoff; past
        // max_attempts (or on a non-transient exception) the stream is
        // truncated here rather than wedging the serve.
        std::optional<data::SequenceFrame> meta;
        int attempts = 0;
        double backoff_ms =
            static_cast<double>(config_.source_retry.backoff.count());
        for (;;) {
          try {
            meta = src.next();
            break;
          } catch (const TransientSourceError&) {
            if (++attempts >= std::max(1, config_.source_retry.max_attempts)) {
              state.source_failed.store(true, std::memory_order_relaxed);
              break;
            }
            state.source_retries.fetch_add(1);
            const auto us = static_cast<std::size_t>(s);
            if (counters[us].source_retries != nullptr)
              counters[us].source_retries->inc();
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(backoff_ms));
            backoff_ms *= std::max(1.0, config_.source_retry.backoff_multiplier);
          } catch (const std::exception&) {
            state.source_failed.store(true, std::memory_order_relaxed);
            break;
          }
        }
        if (!meta) break;
        ingest_stage.latency->record(Clock::now() - t0);
        if (config_.validate_frames && !std::isfinite(meta->light_level)) {
          // Garbage in, nothing out: refused BEFORE an index is assigned,
          // so the control plane's frame numbering stays dense and healthy
          // streams are unaffected bit for bit.
          state.garbage_frames.fetch_add(1);
          const auto us = static_cast<std::size_t>(s);
          if (counters[us].garbage != nullptr) counters[us].garbage->inc();
          continue;
        }
        FrameTask task;
        task.stream = static_cast<int>(s);
        task.index = index++;
        task.meta = std::move(*meta);
        task.trace = span.context();
        task.ingest_ns = tracer.now_ns();
        control_q.push(std::move(task));
        state.last_progress_ns.store(tracer.now_ns(),
                                     std::memory_order_relaxed);
        ingest_stage.processed->inc();
      }
      state.frames_ingested.store(index);
      state.ingest_done.store(true, std::memory_order_relaxed);
    }
    if (live_ingest.fetch_sub(1) == 1) control_q.close();
  };

  // --- coast ledger operations (ladder level 2; no-ops when inactive) ---
  // Feed one frame's entry to the stream's tracker ledger and advance the
  // in-order frontier as far as it goes. coast_mutex is a leaf lock.
  const auto publish_entry = [&](StreamState& st, int index,
                                 CoastEntry entry) {
    if (!ladder_active) return;
    bool advanced = false;
    {
      std::lock_guard<std::mutex> lock(st.coast_mutex);
      st.coast_pending.emplace(index, std::move(entry));
      for (auto it = st.coast_pending.find(st.coast_done + 1);
           it != st.coast_pending.end();
           it = st.coast_pending.find(st.coast_done + 1)) {
        CoastEntry& e = it->second;
        if (e.coast) {
          // No fresh detections: the tracker coasts every live box forward
          // by its last motion; confirmed tracks become the frame's output.
          std::vector<det::Track> tracks = st.tracker.update({});
          std::vector<det::Detection> dets;
          dets.reserve(tracks.size());
          for (const det::Track& t : tracks) {
            det::Detection d;
            d.box = t.box;
            d.score = t.last_score;
            d.class_id = t.class_id;
            dets.push_back(d);
          }
          st.coast_results.emplace(it->first, std::move(dets));
        } else {
          st.tracker.update(e.dets);
        }
        ++st.coast_done;
        st.coast_pending.erase(it);
        advanced = true;
      }
    }
    if (advanced) st.coast_cv.notify_all();
  };
  // Wait for the frontier to cross `index`, then take its coasted boxes.
  // Safe: the detect queue is FIFO, so every smaller index of this stream
  // already left it, and every leaving path publishes an entry; waits are
  // only ever on smaller indices, so no cycles.
  const auto take_coast = [&](StreamState& st, int index) {
    std::unique_lock<std::mutex> lock(st.coast_mutex);
    st.coast_cv.wait(lock, [&] { return st.coast_done >= index; });
    const auto it = st.coast_results.find(index);
    std::vector<det::Detection> dets = std::move(it->second);
    st.coast_results.erase(it);
    return dets;
  };

  // A frame that never reaches the scan still produces a report, never a
  // silent loss: the vehicle engine misses it, the static pedestrian
  // partition does not. `shed`: refused by admission (the ladder's level 3
  // or the token bucket), on the control thread so the frame skips the
  // detect queue entirely. Otherwise it overflowed the detect queue: the
  // serving-layer twin of the paper's reconfiguration drop. Either way it
  // advances the coast ledger as an empty update, exactly what the
  // tracker's miss-coasting is for.
  const auto emit_unscanned = [&](DetectTask&& task, bool shed) {
    StreamState& st = *streams[static_cast<std::size_t>(task.stream)];
    if (!shed) st.backpressure_drops.fetch_add(1);
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
    out.report = system_->evaluate_frame(task.step, task.meta);
    out.report.degrade_level = static_cast<int>(task.decision.level);
    out.trace = span.context();
    out.ingest_ns = task.ingest_ns;
    out.backpressure_dropped = !shed;
    out.shed = shed;
    publish_entry(st, task.step.index, CoastEntry{});
    report_q.push(std::move(out));
  };

  // --- stage 2: control (per-stream sequential) ------------------------
  const auto control_loop = [&] {
    while (std::optional<FrameTask> task = control_q.pop()) {
      StreamState& state = *streams[static_cast<std::size_t>(task->stream)];
      std::unique_lock<std::mutex> lock(state.mutex);
      if (task->index != state.next_index) {
        // Another worker holds an earlier frame of this stream; park the
        // whole task (trace context included) until the stream catches up.
        const int index = task->index;
        state.pending.emplace(index, std::move(*task));
        continue;
      }
      FrameTask current = std::move(*task);
      for (;;) {
        // Re-install the frame's context on whichever worker won the frame:
        // the control span parents on the ingest span across the thread hop.
        const obs::TraceScope scope(current.trace);
        obs::ScopedSpan span("control_frame", "runtime/control",
                             {{"stream", current.stream},
                              {"frame", current.index}});
        const Clock::time_point t0 = Clock::now();
        DetectTask dt;
        dt.step = state.session.control_step(current.meta);
        control_stage.record(t0);
        span.arg("mode", static_cast<std::int64_t>(dt.step.sensed));
        dt.stream = current.stream;
        dt.meta = std::move(current.meta);
        dt.trace = span.context();
        dt.ingest_ns = current.ingest_ns;
        ++state.next_index;
        state.last_progress_ns.store(tracer.now_ns(),
                                     std::memory_order_relaxed);

        // The admission verdict is taken here — per-stream sequential, so
        // a forced level (fault plan) keyed on the frame index yields a
        // deterministic transition sequence.
        if (ladder_active) {
          const std::optional<int> forced =
              injector != nullptr
                  ? injector->forced_degrade_level(dt.stream, dt.step.index)
                  : std::nullopt;
          dt.decision = admission->decide(dt.stream, dt.step.index,
                                          tracer.now_ns(), forced);
        }
        if (!dt.decision.admit) {
          emit_unscanned(std::move(dt), true);
        } else {
          // The queue hands any dropped task back (the stale one under
          // DropOldest, this one under DropNewest) so no frame vanishes.
          std::optional<DetectTask> displaced;
          detect_q.push(std::move(dt), &displaced);
          if (displaced) emit_unscanned(std::move(*displaced), false);
        }

        const auto it = state.pending.find(state.next_index);
        if (it == state.pending.end()) break;
        current = std::move(it->second);
        state.pending.erase(it);
      }
    }
    if (live_control.fetch_sub(1) == 1) detect_q.close();
  };

  // --- stage 3: detect (parallel, const) -------------------------------
  // One frame's pixel-level evaluation — the body of a detect worker's
  // loop, also runnable as one task of a cross-stream batch on the scan
  // pool (everything it touches is const, per-stream-synchronised, or an
  // MPMC queue). `coast_prepublished` skips the ledger publish for coast
  // frames whose entries the batched loop already published (see below).
  const auto detect_one = [&](DetectTask& task, bool coast_prepublished) {
    const obs::TraceScope scope(task.trace);
    obs::ScopedSpan span("detect_frame", "runtime/detect",
                         {{"stream", task.stream},
                          {"frame", task.step.index},
                          {"mode", static_cast<std::int64_t>(
                                       task.step.sensed)}});
    const Clock::time_point t0 = Clock::now();
    StreamState& st = *streams[static_cast<std::size_t>(task.stream)];
    const DegradeLevel level = task.decision.level;
    const bool coast = ladder_active && task.decision.coast;
    core::EvaluateOptions opts;
    std::vector<det::Detection> dets;
    if (coast) {
      // Level-2 coast: no render, no scan, no simulated accelerator — the
      // frame's boxes come from the tracker once every earlier frame of the
      // stream has fed it (see the coast ledger).
      span.arg("coast", 1);
      if (!coast_prepublished)
        publish_entry(st, task.step.index, CoastEntry{true, {}});
      dets = take_coast(st, task.step.index);
      opts.provided_detections = &dets;
    } else if (ladder_active) {
      // The scan's boxes feed the stream's tracker through the ledger.
      opts.out_detections = &dets;
    }
    if (level == DegradeLevel::CoarseScan || level == DegradeLevel::SkipCoast)
      opts.sliding_override = &degraded_sliding;
    ReportTask out;
    out.stream = task.stream;
    out.trace = span.context();
    out.ingest_ns = task.ingest_ns;
    out.report = system_->evaluate_frame(task.step, task.meta, opts);
    out.report.degrade_level = static_cast<int>(level);
    out.report.detect_coasted = coast;
    // The modelled PL accelerator occupies the worker on frames whose
    // vehicle engine ran a scan; an injected slowdown on every frame.
    double sleep_ms = 0.0;
    if (config_.simulated_accel_ms > 0.0 && !coast &&
        task.step.record.vehicle_processed)
      sleep_ms = config_.simulated_accel_ms;
    if (injector != nullptr)
      sleep_ms += injector->detect_slowdown_ms(task.stream, task.step.index);
    if (sleep_ms > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    if (!coast)
      publish_entry(st, task.step.index, CoastEntry{false, std::move(dets)});
    st.last_progress_ns.store(tracer.now_ns(), std::memory_order_relaxed);
    detect_stage.record(t0);
    report_q.push(std::move(out));
  };

  // Cross-stream batching needs the shared pool to fan a gather onto.
  const bool batching = config_.cross_stream_batching &&
                        config_.scan_pool != nullptr &&
                        config_.detect_batch_max > 1;
  // Takes the worker index run_indexed hands each pooled loop.
  const auto detect_loop = [&](int) {
    while (std::optional<DetectTask> first = detect_q.pop()) {
      if (!batching) {
        detect_one(*first, false);
        continue;
      }
      // Gather: one blocking pop (above) plus opportunistic try_pops, so a
      // sparse queue costs nothing — the batch is whatever is ALREADY
      // queued, across every stream on this server.
      std::vector<DetectTask> scans;
      std::vector<DetectTask> coasts;
      const auto stash = [&](DetectTask&& t) {
        (ladder_active && t.decision.coast ? coasts : scans)
            .push_back(std::move(t));
      };
      stash(std::move(*first));
      DetectTask extra;
      while (static_cast<int>(scans.size() + coasts.size()) <
                 config_.detect_batch_max &&
             detect_q.try_pop(extra))
        stash(std::move(extra));
      // Coast-ledger discipline: publish EVERY gathered coast entry before
      // anything in this gather may block in take_coast. A worker that
      // blocked while still holding unpublished entries could deadlock
      // against another worker doing the same with the interleaved indices
      // of the opposite stream; publishing first keeps the global
      // invariant that every popped frame is published without waiting.
      for (DetectTask& t : coasts)
        publish_entry(*streams[static_cast<std::size_t>(t.stream)],
                      t.step.index, CoastEntry{true, {}});
      // Scan frames are independent const evaluations: one indexed batch
      // on the shared pool, whatever stream each frame belongs to.
      if (scans.size() == 1) {
        detect_one(scans.front(), false);
      } else if (!scans.empty()) {
        config_.scan_pool->run_indexed(
            static_cast<int>(scans.size()), [&scans, &detect_one](int i) {
              detect_one(scans[static_cast<std::size_t>(i)], false);
            });
      }
      // Scatter coast frames in canonical (stream, index) order — a coast
      // frame's same-stream predecessors in this gather are consumed
      // before it waits, and its report lands via the same order-
      // insensitive collector as everything else.
      std::sort(coasts.begin(), coasts.end(),
                [](const DetectTask& a, const DetectTask& b) {
                  return a.stream != b.stream ? a.stream < b.stream
                                              : a.step.index < b.step.index;
                });
      for (DetectTask& t : coasts) detect_one(t, true);
    }
    if (live_detect.fetch_sub(1) == 1) report_q.close();
  };

  // --- stage 4: report collector ---------------------------------------
  const auto collect_loop = [&] {
    while (std::optional<ReportTask> task = report_q.pop()) {
      const obs::TraceScope scope(task->trace);
      obs::ScopedSpan span("collect_report", "runtime/report",
                           {{"stream", task->stream},
                            {"frame", task->report.index}});
      const Clock::time_point t0 = Clock::now();
      const auto us = static_cast<std::size_t>(task->stream);
      auto& stream_slots = slots[us];
      auto& stream_filled = filled[us];
      const auto index = static_cast<std::size_t>(task->report.index);
      if (index >= stream_slots.size()) {
        stream_slots.resize(index + 1);
        stream_filled.resize(index + 1, false);
      }
      // Critical-path latency of this frame: ingest-enqueue to
      // report-dequeue on the tracer timebase. Feeds the latency histogram,
      // the deadline counter the frame_deadline SLO rule watches, and the
      // span (as an arg) so traces carry the number too.
      const std::uint64_t now_ns = tracer.now_ns();
      const std::uint64_t latency_ns =
          now_ns >= task->ingest_ns ? now_ns - task->ingest_ns : 0;
      span.arg("latency_us", static_cast<std::int64_t>(latency_ns / 1000u));
      StreamCounters& c = counters[us];
      c.latency->record_ns(latency_ns);
      if (!task->shed) admitted_latency.record_ns(latency_ns);
      c.frames->inc();
      if (deadline_ns > 0 && latency_ns > deadline_ns) {
        c.deadline_miss->inc();
        streams[us]->deadline_misses.fetch_add(1);
        // Tail sampling: a deadline miss makes this frame's chain worth
        // keeping verbatim when the rings are ingested after the run.
        sampler_->mark_interesting(task->trace.trace_id);
      }
      if (task->backpressure_dropped) {
        c.backpressure_drops->inc();
        sampler_->mark_interesting(task->trace.trace_id);
      }
      if (task->shed) {
        if (c.shed != nullptr) c.shed->inc();
        sampler_->mark_interesting(task->trace.trace_id);
      } else if (task->report.detect_coasted) {
        if (c.coasted != nullptr) c.coasted->inc();
      } else if (task->report.degrade_level > 0 &&
                 !task->backpressure_dropped) {
        if (c.degraded_scans != nullptr) c.degraded_scans->inc();
      }
      // Shed frames are an explicit admission verdict, not a reconfig cost;
      // keep them out of the reconfiguration-loss SLO rule.
      if (!task->report.vehicle_processed && !task->backpressure_dropped &&
          !task->shed)
        c.reconfig_drops->inc();
      if (task->report.reconfig_triggered) c.reconfigs->inc();
      stream_slots[index] = std::move(task->report);
      stream_filled[index] = true;
      streams[us]->collected.fetch_add(1, std::memory_order_relaxed);
      streams[us]->last_progress_ns.store(now_ns, std::memory_order_relaxed);
      report_stage.record(t0);
    }
  };

  // --- liveness watchdog -----------------------------------------------
  // Polls per-stream progress timestamps; a stream that is started,
  // incomplete and silent past the timeout is pinned to Shed (degrade
  // level 3) and its source abandoned — the wedge becomes an accounted
  // event instead of a hung serve.
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog_thread;
  if (config_.watchdog.enabled && ladder_active) {
    const std::uint64_t timeout_ns = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, config_.watchdog.timeout.count())) *
        1000000ull;
    watchdog_thread = std::thread([&, timeout_ns] {
      while (!watchdog_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(config_.watchdog.poll);
        const std::uint64_t now = tracer.now_ns();
        for (int s = 0; s < n_streams; ++s) {
          StreamState& st = *streams[static_cast<std::size_t>(s)];
          if (st.watchdog_fired.load(std::memory_order_relaxed)) continue;
          if (!st.ingest_started.load(std::memory_order_relaxed)) continue;
          const bool complete =
              st.ingest_done.load(std::memory_order_relaxed) &&
              st.collected.load(std::memory_order_relaxed) ==
                  st.frames_ingested.load();
          if (complete) continue;
          const std::uint64_t last =
              st.last_progress_ns.load(std::memory_order_relaxed);
          if (now > last && now - last > timeout_ns) {
            st.watchdog_fired.store(true, std::memory_order_relaxed);
            admission->force_level(s, DegradeLevel::Shed, "watchdog");
            registry.counter("runtime.watchdog_fired", stream_labels(s))
                .inc();
          }
        }
      }
    });
  }

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(config_.ingest_workers +
                                           config_.control_workers +
                                           config_.detect_workers) +
                  1);
  for (int i = 0; i < config_.ingest_workers; ++i)
    workers.emplace_back(ingest_loop);
  for (int i = 0; i < config_.control_workers; ++i)
    workers.emplace_back(control_loop);
  if (config_.scan_pool != nullptr && !batching) {
    // Shared-pool mode: one launcher thread publishes the detect loops as an
    // indexed batch on the scanner's pool and helps run them. Ingest,
    // control and the collector stay dedicated threads, so the queues always
    // drain and close — pooled detect loops terminate even when every pool
    // thread is parked in detect_q.pop(). Nested scans inside a pooled
    // detect worker (sliding.pool == scan_pool) self-help, so sharing one
    // pool cannot deadlock.
    //
    // With cross-stream batching the roles invert: detect workers stay
    // dedicated threads acting as batch coordinators (gather from the
    // queue, fan the batch onto the pool, help run it), so every pool
    // thread is available to execute frames instead of being parked in
    // detect_q.pop().
    workers.emplace_back([this, &detect_loop] {
      config_.scan_pool->run_indexed(config_.detect_workers, detect_loop);
    });
  } else {
    for (int i = 0; i < config_.detect_workers; ++i)
      workers.emplace_back(detect_loop, i);
  }
  workers.emplace_back(collect_loop);
  for (std::thread& t : workers) t.join();
  if (watchdog_thread.joinable()) {
    watchdog_stop.store(true, std::memory_order_relaxed);
    watchdog_thread.join();
  }

  control_stage.queue_high_water->set(
      static_cast<double>(control_q.stats().high_water));
  detect_stage.queue_high_water->set(
      static_cast<double>(detect_q.stats().high_water));
  report_stage.queue_high_water->set(
      static_cast<double>(report_q.stats().high_water));

  // Fold the labeled per-stream series into the fleet base names — even
  // with monitoring disabled, direct post-serve readers of e.g.
  // "runtime.frame.latency_ns" see the fleet aggregate.
  registry.rollup();

  // One final telemetry window catches counters the last periodic sample
  // missed, then the monitors' verdicts become part of the results.
  if (telemetry) telemetry->stop();

  // Writers have quiesced: feed the tail sampler and the flight recorder
  // from the tracer rings. snapshot() (not drain()) leaves the spans in
  // place for callers that export their own traces after serve().
  if (tracer.enabled()) {
    const std::vector<obs::SpanRecord> spans = tracer.snapshot();
    const std::vector<obs::FrameTrace> chains =
        obs::assemble_frame_traces(spans);
    sampler_->ingest(chains);
    for (const obs::FrameTrace& chain : chains) recorder_->record_frame(chain);
    registry.gauge("obs.sampler.frames_seen")
        .set(static_cast<double>(sampler_->frames_seen()));
    registry.gauge("obs.sampler.frames_retained")
        .set(static_cast<double>(sampler_->frames_retained()));
    registry.gauge("obs.sampler.spans_seen")
        .set(static_cast<double>(sampler_->spans_seen()));
  }

  // Finalise a dump requested by an UNHEALTHY transition, now that the
  // breaching frames' chains are in the recorder.
  if (flight_dump_requested.load(std::memory_order_relaxed)) {
    std::string dir = config_.slo.flight_dump_dir;
    if (dir.empty()) {
      if (const char* env = std::getenv("AVD_FLIGHT_DIR")) dir = env;
    }
    if (!dir.empty()) {
      const std::string path = dir + "/flight_bundle_serve" +
                               std::to_string(serve_id) + ".json";
      if (recorder_->dump_to_file(path, "health transition to UNHEALTHY"))
        last_flight_bundle_path_ = path;
    }
  }


  // --- assemble per-stream results -------------------------------------
  for (int s = 0; s < n_streams; ++s) {
    const auto us = static_cast<std::size_t>(s);
    StreamState& state = *streams[us];
    StreamResult& result = results[us];
    const int expected = state.frames_ingested.load();
    if (static_cast<int>(slots[us].size()) != expected)
      throw std::logic_error("StreamServer: stream " + std::to_string(s) +
                             " lost frames (" +
                             std::to_string(slots[us].size()) + "/" +
                             std::to_string(expected) + ")");
    for (std::size_t i = 0; i < filled[us].size(); ++i)
      if (!filled[us][i])
        throw std::logic_error("StreamServer: stream " + std::to_string(s) +
                               " missing frame " + std::to_string(i));
    result.report.frames = std::move(slots[us]);
    result.report.reconfigs = state.session.reconfigs();
    result.report.log = state.session.log();
    result.backpressure_drops = state.backpressure_drops.load();
    result.deadline_misses = state.deadline_misses.load();
    result.garbage_frames = state.garbage_frames.load();
    result.source_retries = state.source_retries.load();
    result.source_failed = state.source_failed.load();
    result.watchdog_fired = state.watchdog_fired.load();
    if (admission != nullptr) {
      const AdmissionStats stats = admission->stats(s);
      result.shed_frames = stats.shed;
      result.coasted_frames = stats.coasted;
      result.degraded_scans = stats.degraded_scans;
      result.degrade_level = admission->level(s);
      result.degrade_transitions = admission->transitions(s);
    }
    if (config_.slo.enabled) {
      result.health = monitors_[us]->state();
      result.health_transitions = monitors_[us]->transitions();
      std::lock_guard<std::mutex> lock(obs_mutex_);
      stream_health_[us] = result.health;
    }
  }
  {
    std::lock_guard<std::mutex> lock(obs_mutex_);
    fleet_health_ = obs::worst_of(stream_health_);
  }
  return results;
}

std::vector<obs::HealthState> StreamServer::live_stream_health() const {
  std::lock_guard<std::mutex> lock(obs_mutex_);
  if (!monitors_.empty()) {
    std::vector<obs::HealthState> states;
    states.reserve(monitors_.size());
    for (const auto& m : monitors_) states.push_back(m->state());
    return states;
  }
  return stream_health_;
}

// The standard introspection surface (see StreamOpsConfig). Handlers run on
// the ops server's pool threads, concurrently with serve(): everything they
// read is either internally thread-safe (registry, sampler, recorder,
// monitors, profiler) or swapped under obs_mutex_.
void StreamServer::install_ops_endpoints() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();

  ops_->handle("/metricsz", [&registry](const obs::HttpRequest&) {
    return obs::prometheus_response(registry);
  });
  ops_->handle("/metricsz.json", [&registry](const obs::HttpRequest&) {
    return obs::metrics_json_response(registry);
  });

  // Live health: mid-serve the monitors answer with their current state
  // machine position; between serves (or with monitoring disabled) the last
  // serve's verdicts answer. 503 on an UNHEALTHY fleet makes this directly
  // usable as a load-balancer / orchestrator readiness probe.
  ops_->handle("/healthz", [this](const obs::HttpRequest&) {
    std::vector<obs::HealthState> states = live_stream_health();
    struct OverloadRow {
      DegradeLevel level = DegradeLevel::Full;
      AdmissionStats stats;
    };
    std::vector<OverloadRow> overload;
    bool admission_on = false;
    {
      std::lock_guard<std::mutex> lock(obs_mutex_);
      if (admission_) {
        admission_on = true;
        overload.resize(states.size());
        for (std::size_t s = 0; s < states.size(); ++s) {
          overload[s].level = admission_->level(static_cast<int>(s));
          overload[s].stats = admission_->stats(static_cast<int>(s));
        }
      }
    }
    const obs::HealthState fleet = obs::worst_of(states);
    std::ostringstream os;
    os << "{\"fleet\":\"" << obs::to_string(fleet) << "\",\"admission\":"
       << (admission_on ? "true" : "false") << ",\"streams\":[";
    for (std::size_t s = 0; s < states.size(); ++s) {
      if (s != 0) os << ',';
      os << "{\"stream\":" << s << ",\"state\":\""
         << obs::to_string(states[s]) << "\"";
      if (s < overload.size()) {
        const OverloadRow& row = overload[s];
        os << ",\"degrade_level\":" << static_cast<int>(row.level)
           << ",\"admitted\":" << row.stats.admitted
           << ",\"shed\":" << row.stats.shed
           << ",\"coasted\":" << row.stats.coasted
           << ",\"degraded_scans\":" << row.stats.degraded_scans;
      }
      os << "}";
    }
    os << "]}";
    obs::HttpResponse res;
    res.status = fleet == obs::HealthState::Unhealthy ? 503 : 200;
    res.content_type = "application/json";
    res.body = os.str();
    return res;
  });

  ops_->handle("/tracez", [this](const obs::HttpRequest&) {
    std::vector<obs::RetainedFrame> retained;
    std::vector<obs::SpanStats> stats;
    std::uint64_t frames_seen = 0, frames_retained = 0, spans_seen = 0,
                  evicted = 0;
    {
      std::lock_guard<std::mutex> lock(obs_mutex_);
      if (sampler_) {
        retained = sampler_->retained();
        stats = sampler_->stats();
        frames_seen = sampler_->frames_seen();
        frames_retained = sampler_->frames_retained();
        spans_seen = sampler_->spans_seen();
        evicted = sampler_->retained_evicted();
      }
    }
    std::ostringstream os;
    os << "{\"frames_seen\":" << frames_seen
       << ",\"frames_retained\":" << frames_retained
       << ",\"spans_seen\":" << spans_seen
       << ",\"retained_evicted\":" << evicted << ",\"span_stats\":[";
    for (std::size_t i = 0; i < stats.size(); ++i) {
      if (i != 0) os << ',';
      os << obs::to_json(stats[i]);
    }
    os << "],\"retained\":[";
    for (std::size_t i = 0; i < retained.size(); ++i) {
      if (i != 0) os << ',';
      os << obs::to_json(retained[i]);
    }
    os << "]}";
    return obs::HttpResponse{200, "application/json", os.str()};
  });

  ops_->handle("/flightz", [this](const obs::HttpRequest&) {
    std::string body;
    {
      std::lock_guard<std::mutex> lock(obs_mutex_);
      if (recorder_) body = recorder_->dump("ops /flightz request");
    }
    if (body.empty())
      body =
          "{\"reason\":\"no serve has run yet\",\"streams\":{},"
          "\"telemetry\":[],\"slo_transitions\":[]}";
    return obs::HttpResponse{200, "application/json", std::move(body)};
  });

  ops_->handle("/statusz", [this, &registry](const obs::HttpRequest&) {
    obs::publish_process_metrics(registry);  // keep /statusz and /metricsz in sync
    // Aggregate overload accounting across streams (zero when admission is
    // off — the fields are always present so parsers stay simple).
    AdmissionStats totals;
    int max_level = 0;
    bool admission_live = false;
    {
      std::lock_guard<std::mutex> lock(obs_mutex_);
      if (admission_) {
        admission_live = true;
        const std::size_t n =
            monitors_.empty() ? stream_health_.size() : monitors_.size();
        for (std::size_t s = 0; s < n; ++s) {
          const AdmissionStats st = admission_->stats(static_cast<int>(s));
          totals.admitted += st.admitted;
          totals.shed += st.shed;
          totals.shed_by_bucket += st.shed_by_bucket;
          totals.coasted += st.coasted;
          totals.degraded_scans += st.degraded_scans;
          max_level = std::max(
              max_level,
              static_cast<int>(admission_->level(static_cast<int>(s))));
        }
      }
    }
    std::ostringstream os;
    os << "{\"build\":{\"version\":\"" << obs::json::escape(obs::build_version())
       << "\",\"mode\":\"" << obs::json::escape(obs::build_mode())
       << "\"},\"uptime_seconds\":" << obs::process_uptime_seconds()
       << ",\"serves\":" << serve_count_.load()
       << ",\"ops_requests\":" << ops_->requests_served()
       << ",\"config\":{\"ingest_workers\":" << config_.ingest_workers
       << ",\"control_workers\":" << config_.control_workers
       << ",\"detect_workers\":" << config_.detect_workers
       << ",\"queue_capacity\":" << config_.queue_capacity
       << ",\"detect_policy\":\"" << to_string(config_.detect_policy)
       << "\",\"slo_enabled\":" << (config_.slo.enabled ? "true" : "false")
       << ",\"frame_budget_ms\":" << config_.slo.frame_budget_ms
       << ",\"admission_enabled\":"
       << (config_.admission.enabled ? "true" : "false")
       << ",\"watchdog_enabled\":"
       << (config_.watchdog.enabled ? "true" : "false")
       << ",\"fault_injection\":"
       << (config_.fault_injector != nullptr ? "true" : "false")
       << ",\"ops_port\":" << ops_->port()
       << ",\"profiler_hz\":" << profiler_->config().hz
       << ",\"max_profile_seconds\":" << config_.ops.max_profile_seconds
       << "},\"admission\":{\"live\":" << (admission_live ? "true" : "false")
       << ",\"max_degrade_level\":" << max_level
       << ",\"admitted\":" << totals.admitted
       << ",\"shed\":" << totals.shed
       << ",\"shed_by_bucket\":" << totals.shed_by_bucket
       << ",\"coasted\":" << totals.coasted
       << ",\"degraded_scans\":" << totals.degraded_scans << "}}";
    return obs::HttpResponse{200, "application/json", os.str()};
  });

  // On-demand profile: blocks its handler thread for the window (clamped to
  // max_profile_seconds); concurrent requests serialise inside run_for().
  ops_->handle("/profilez", [this](const obs::HttpRequest& req) {
    // std::from_chars is locale-independent: "1,5" is rejected outright
    // instead of silently parsing as 1 (or as 1.5 under a comma-decimal
    // locale), and must consume the whole value.
    const std::string secs = req.query_value("seconds", "1");
    double seconds = 0.0;
    const auto [ptr, ec] =
        std::from_chars(secs.data(), secs.data() + secs.size(), seconds);
    if (ec != std::errc{} || ptr != secs.data() + secs.size() ||
        !(seconds > 0.0))
      return obs::HttpResponse{400, "text/plain; charset=utf-8",
                               "bad seconds value: " + secs + "\n"};
    seconds = std::min(seconds, config_.ops.max_profile_seconds);
    const obs::ProfileReport report = profiler_->run_for(
        std::chrono::milliseconds(static_cast<long>(seconds * 1000.0)));
    if (req.query_value("format") == "json")
      return obs::HttpResponse{200, "application/json", report.to_json()};
    return obs::HttpResponse{200, "text/plain; charset=utf-8",
                             report.to_collapsed()};
  });
}

}  // namespace avd::runtime
