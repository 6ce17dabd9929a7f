// adaptive_serve: four streams of DriveSequence::canonical_drive at 640x360
// through runtime::StreamServer with the real detectors (rendering happens in
// the detect stage, as in serving). One shared 4-thread pool is both the
// server's scan_pool and the system's sliding.pool; cross-stream batching on,
// Block policy, one ingest worker per stream, every other knob at its default.
//
// Phase 1 (saturation): unpaced sources; gives serve_fps and CPU per frame.
// Phase 2 (paced, open loop): each stream released at a fixed 3 fps with
// phase-staggered sources; gives ingest->report latency, read exactly from
// the registry's per-stream runtime.frame.latency_ns histograms. 12 fps
// offered is about a fifth of saturation on a quiet 4-core host, low enough
// that latency tracks service time even when a shared host runs 30% slower
// (at 24 fps the queueing swung the median latency by 30% between runs).
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "avd/image/color.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/stream_server.hpp"
#include "avd/runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace avdbench {
namespace {

namespace core = avd::core;
namespace data = avd::data;
namespace det = avd::det;
namespace img = avd::img;
namespace rt = avd::runtime;

constexpr int kStreams = 4;
constexpr int kPoolThreads = 4;
constexpr double kPacedFps = 3.0;  // per stream: 12 fps offered in total
constexpr int kTracedFrames = 12;

/// A camera releasing frame i no earlier than epoch + phase + i * period. It
/// records how late each release ran against that schedule.
class PacedSource final : public rt::FrameSource {
 public:
  PacedSource(data::DriveSequence sequence, std::chrono::microseconds period,
              std::chrono::microseconds phase, std::vector<double>* late_ms)
      : sequence_(std::move(sequence)),
        period_(period),
        phase_(phase),
        late_ms_(late_ms) {}

  [[nodiscard]] int frame_count() const override {
    return sequence_.frame_count();
  }

  [[nodiscard]] std::optional<data::SequenceFrame> next() override {
    if (next_ >= sequence_.frame_count()) return std::nullopt;
    if (next_ == 0) epoch_ = Clock::now() + phase_;
    const Clock::time_point due = epoch_ + next_ * period_;
    std::this_thread::sleep_until(due);
    late_ms_->push_back(ms_between(due, Clock::now()));
    return sequence_.frame(next_++);
  }

 private:
  data::DriveSequence sequence_;
  std::chrono::microseconds period_;
  std::chrono::microseconds phase_;
  std::vector<double>* late_ms_;  ///< owned by the caller; one per source
  Clock::time_point epoch_;
  int next_ = 0;
};

/// Reads each frame's exact ingest->report latency out of the per-stream
/// runtime.frame.latency_ns histograms while a paced serve runs: a stream's
/// (count, sum) pair that has moved by exactly one sample and then held still
/// for one poll is one frame's latency. Two frames of one stream landing in
/// the same poll interval are merged and skipped (counted in merged()).
class LatencyPoller {
 public:
  explicit LatencyPoller(std::vector<avd::obs::Histogram*> streams)
      : streams_(std::move(streams)),
        last_(streams_.size()),
        committed_(streams_.size()),
        samples_(streams_.size()) {
    for (std::size_t k = 0; k < streams_.size(); ++k)
      last_[k] = committed_[k] = {streams_[k]->count(), streams_[k]->sum_ns()};
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        poll();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  ~LatencyPoller() { finish(); }
  LatencyPoller(const LatencyPoller&) = delete;
  LatencyPoller& operator=(const LatencyPoller&) = delete;

  /// Stops the thread and settles the final samples (the serve has ended).
  void finish() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    thread_.join();
    poll();
    poll();
  }
  /// Exact latencies of stream k's frames, in completion order.
  [[nodiscard]] const std::vector<double>& samples_ms(std::size_t k) const {
    return samples_[k];
  }
  [[nodiscard]] std::uint64_t merged() const { return merged_; }

 private:
  struct State {
    std::uint64_t count = 0, sum = 0;
    bool operator==(const State&) const = default;
  };

  void poll() {
    for (std::size_t k = 0; k < streams_.size(); ++k) {
      const State now{streams_[k]->count(), streams_[k]->sum_ns()};
      if (now == last_[k] && now.count != committed_[k].count) {
        const std::uint64_t n = now.count - committed_[k].count;
        if (n == 1)
          samples_[k].push_back(
              static_cast<double>(now.sum - committed_[k].sum) / 1e6);
        else
          merged_ += n;
        committed_[k] = now;
      }
      last_[k] = now;
    }
  }

  std::vector<avd::obs::Histogram*> streams_;
  std::vector<State> last_, committed_;
  std::vector<std::vector<double>> samples_;
  std::uint64_t merged_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: uses every member above
};

/// One set-up's products, declared so each outlives what points at it.
struct Rig {
  std::unique_ptr<rt::ThreadPool> pool;
  std::unique_ptr<core::AdaptiveSystem> system;
  std::unique_ptr<rt::StreamServer> server;
};

Rig set_up() {
  Rig rig;
  core::SystemModels models = train_models();
  rig.pool = std::make_unique<rt::ThreadPool>(kPoolThreads);
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = true;
  cfg.sliding.pool = rig.pool.get();
  rig.system = std::make_unique<core::AdaptiveSystem>(std::move(models), cfg);
  rt::StreamServerConfig sc;
  sc.ingest_workers = kStreams;
  sc.scan_pool = rig.pool.get();
  sc.cross_stream_batching = true;
  sc.detect_policy = rt::OverflowPolicy::Block;
  rig.server = std::make_unique<rt::StreamServer>(*rig.system, sc);
  return rig;
}

std::vector<data::SequenceSpec> drive_specs(std::uint64_t seed, int phase,
                                            int frames_per_segment) {
  std::vector<data::SequenceSpec> specs;
  for (int s = 0; s < kStreams; ++s) {
    data::SequenceSpec spec =
        data::DriveSequence::canonical_drive({640, 360}, frames_per_segment);
    spec.seed = input_seed(seed, static_cast<std::uint64_t>(100 * phase + s));
    specs.push_back(spec);
  }
  return specs;
}

std::vector<avd::obs::Histogram*> latency_histograms() {
  std::vector<avd::obs::Histogram*> out;
  for (int s = 0; s < kStreams; ++s)
    out.push_back(&avd::obs::MetricsRegistry::global().histogram(
        "runtime.frame.latency_ns", {{"stream", std::to_string(s)}}));
  return out;
}

std::uint64_t latency_count(const std::vector<avd::obs::Histogram*>& hs) {
  std::uint64_t n = 0;
  for (const avd::obs::Histogram* h : hs) n += h->count();
  return n;
}

bool same_report(const core::AdaptiveFrameReport& a,
                 const core::AdaptiveFrameReport& b) {
  return a.index == b.index && a.light_level == b.light_level &&
         a.sensed == b.sensed && a.active_config == b.active_config &&
         a.vehicle_processed == b.vehicle_processed &&
         a.pedestrian_processed == b.pedestrian_processed &&
         a.reconfig_triggered == b.reconfig_triggered &&
         a.vehicles_truth == b.vehicles_truth &&
         a.vehicle_match.true_positives == b.vehicle_match.true_positives &&
         a.vehicle_match.false_negatives == b.vehicle_match.false_negatives &&
         a.vehicle_match.false_positives == b.vehicle_match.false_positives &&
         a.degrade_level == b.degrade_level &&
         a.detect_coasted == b.detect_coasted;
}

struct PhaseResult {
  std::vector<rt::StreamResult> streams;
  std::vector<data::SequenceSpec> specs;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t frames = 0;
  std::vector<double> latency_ms;  ///< paced phase only, every stream
  std::vector<double> stream0_latency_ms;
  std::vector<double> late_ms;     ///< paced phase only
  std::uint64_t merged = 0;
};

/// Every check a served phase must pass; failed frames are counted.
void gate_phase(Report& report, const std::string& phase,
                const PhaseResult& r, const core::AdaptiveSystem& system,
                std::uint64_t histogram_samples) {
  const avd::soc::FrameScheduler scheduler(system.config().scheduler);
  std::uint64_t expected = 0, lost = 0, outside_window = 0;
  for (std::size_t s = 0; s < r.streams.size(); ++s) {
    const rt::StreamResult& sr = r.streams[s];
    const auto want = static_cast<std::uint64_t>(
        data::DriveSequence(r.specs[s]).frame_count());
    expected += want;
    lost += want - std::min<std::uint64_t>(want, sr.report.frames.size()) +
            sr.shed_frames + sr.backpressure_drops;
    if (sr.source_failed || sr.watchdog_fired) lost += want;
    for (const core::AdaptiveFrameReport& f : sr.report.frames) {
      if (f.vehicle_processed) continue;
      const std::uint64_t t = scheduler.frame_time(f.index).ps;
      bool inside = false;
      for (const avd::soc::ReconfigResult& w : sr.report.reconfigs)
        inside = inside || (w.start.ps <= t && t < w.end.ps);
      outside_window += inside ? 0 : 1;
    }
  }
  report.attempt(expected);
  report.gate(phase + "_frames_served", lost == 0, lost);
  report.gate(phase + "_drops_inside_reconfig_windows", outside_window == 0,
              outside_window);
  report.gate(phase + "_latency_histogram_counts_every_frame",
              histogram_samples == r.frames,
              r.frames > histogram_samples ? r.frames - histogram_samples
                                           : histogram_samples - r.frames);
}

PhaseResult serve_phase(Rig& rig, std::vector<data::SequenceSpec> specs,
                        bool paced, Report& report, const std::string& name) {
  PhaseResult r;
  r.specs = std::move(specs);
  std::vector<std::vector<double>> late(r.specs.size());
  std::vector<std::unique_ptr<rt::FrameSource>> sources;
  const auto period = std::chrono::microseconds(
      static_cast<std::int64_t>(std::llround(1e6 / kPacedFps)));
  for (std::size_t s = 0; s < r.specs.size(); ++s) {
    data::DriveSequence seq(r.specs[s]);
    if (paced)
      sources.push_back(std::make_unique<PacedSource>(
          std::move(seq), period,
          period * static_cast<int>(s) / static_cast<int>(r.specs.size()),
          &late[s]));
    else
      sources.push_back(rt::make_source(std::move(seq)));
  }
  const std::vector<avd::obs::Histogram*> hists = latency_histograms();
  const std::uint64_t count0 = latency_count(hists);
  std::unique_ptr<LatencyPoller> poller;
  if (paced) poller = std::make_unique<LatencyPoller>(hists);
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  r.streams = rig.server->serve(std::move(sources));
  r.wall_s = ms_between(t0, Clock::now()) / 1e3;
  r.cpu_s = process_cpu_seconds() - cpu0;
  for (const rt::StreamResult& sr : r.streams)
    r.frames += sr.report.frames.size();
  if (poller) {
    poller->finish();
    for (std::size_t s = 0; s < r.specs.size(); ++s)
      r.latency_ms.insert(r.latency_ms.end(), poller->samples_ms(s).begin(),
                          poller->samples_ms(s).end());
    r.stream0_latency_ms = poller->samples_ms(0);
    r.merged = poller->merged();
  }
  for (const std::vector<double>& l : late)
    r.late_ms.insert(r.late_ms.end(), l.begin(), l.end());
  gate_phase(report, name, r, *rig.system, latency_count(hists) - count0);
  return r;
}

/// The traced decomposition on stream 0's paced drive: render, grey, the
/// vehicle engine the frame's condition selects, match on sampled frames;
/// then the control plane and evaluate_frame over every frame.
void trace_layers(const Rig& rig, const data::SequenceSpec& spec,
                  Report& report, Ledger& ledger) {
  const core::AdaptiveSystem& sys = *rig.system;
  const data::DriveSequence seq(spec);
  const int n = seq.frame_count();
  const int traced = std::min(n, kTracedFrames);
  ScanCounters counts;
  for (int j = 0; j < traced; ++j) {
    const data::SequenceFrame meta = seq.frame(j * n / traced);
    const img::RgbImage frame = ledger.time(
        layer::kRender, j, [&] { return data::render_scene(meta.scene); });
    const ScanCounters before = ScanCounters::read();
    const img::ImageU8 gray = ledger.time(
        layer::kGrey, j, [&] { return img::rgb_to_gray(frame); });
    if (meta.condition == data::LightingCondition::Dark) {
      trace_dark_path(ledger, j, frame, sys.models().dark);
    } else {
      trace_hog_scan(ledger, j, gray,
                     sys.models().vehicle_model_for(meta.condition),
                     sys.config().sliding);
    }
    counts = counts.plus(ScanCounters::read().minus(before));
    const std::vector<det::Detection> dets =
        sys.detect_vehicles(frame, meta.condition);
    (void)ledger.time(layer::kMatch, j, [&] {
      return det::match_detections(dets, vehicle_truth(meta.scene),
                                   sys.config().match_iou);
    });
  }
  report.set(layer::kRender, ledger.per_frame(layer::kRender, traced), "ms",
             static_cast<std::size_t>(traced));
  report_layers(report, ledger, traced, counts);

  std::vector<data::SequenceFrame> metas;
  std::vector<int> every;
  for (int i = 0; i < n; ++i) {
    metas.push_back(seq.frame(i));
    every.push_back(i);
  }
  trace_control(sys, metas, every, report, ledger);
}

}  // namespace

void run_serve_workload(const Options& opts, Report& report) {
  Rig rig = repeated_set_up(report, set_up);

  // Frame counts are fixed by --seconds alone, never by measured speed, so
  // every run of a seed serves identical work.
  const int saturation_seg =
      std::max(2, static_cast<int>(std::lround(opts.seconds)));
  const int paced_seg =
      std::max(6, static_cast<int>(std::lround(opts.seconds * 0.6)));

  const std::vector<data::SequenceSpec> sat_specs =
      drive_specs(opts.seed, 0, saturation_seg);
  const PhaseResult sat =
      serve_phase(rig, sat_specs, false, report, "saturation");
  const PhaseResult paced = serve_phase(
      rig, drive_specs(opts.seed, 1, paced_seg), true, report, "paced");

  // Stream 0 must reproduce the sequential AdaptiveSystem::run() exactly.
  const core::AdaptiveRunReport sequential =
      rig.system->run(data::DriveSequence(sat_specs[0]));
  const std::vector<core::AdaptiveFrameReport>& served =
      sat.streams[0].report.frames;
  std::uint64_t mismatched = 0;
  for (std::size_t i = 0; i < sequential.frames.size(); ++i)
    mismatched +=
        i >= served.size() || !same_report(served[i], sequential.frames[i]);
  report.gate("stream0_matches_sequential_run",
              mismatched == 0 && served.size() == sequential.frames.size(),
              mismatched);

  Quality quality;
  std::uint64_t dropped = 0, reconfigs = 0;
  for (const PhaseResult* phase : {&sat, &paced}) {
    for (const rt::StreamResult& sr : phase->streams) {
      for (const core::AdaptiveFrameReport& f : sr.report.frames) {
        quality.add(f.vehicle_match);
        dropped += f.vehicle_processed ? 0 : 1;
      }
      reconfigs += static_cast<std::uint64_t>(sr.report.reconfig_count());
    }
  }
  quality.report(report);
  report.gate("reconfigurations_happened", reconfigs > 0);
  report.set("dropped_frames_per_reconfig",
             reconfigs > 0 ? static_cast<double>(dropped) /
                                 static_cast<double>(reconfigs)
                           : 0.0,
             "frames", reconfigs);

  report.set("serve_fps", static_cast<double>(sat.frames) / sat.wall_s, "1/s",
             sat.frames);
  report.set("cpu_ms_per_frame",
             sat.cpu_s * 1e3 / static_cast<double>(sat.frames), "ms",
             sat.frames);
  // On this workload a frame's arrival-to-result time is the paced phase's
  // ingest->report latency, so frame_ms_* and serve_latency_ms_* coincide.
  for (const char* prefix : {"frame_ms", "serve_latency_ms"}) {
    report.set_percentile(std::string(prefix) + "_p50", paced.latency_ms, 50,
                          "ms");
    report.set_percentile(std::string(prefix) + "_p90", paced.latency_ms, 90,
                          "ms");
  }
  report.note("latency_samples_merged", std::to_string(paced.merged));

  if (opts.trace) {
    avd::obs::Tracer& tracer = avd::obs::Tracer::global();
    tracer.set_enabled(true);
    const PhaseResult traced =
        serve_phase(rig, sat_specs, false, report, "traced_saturation");
    tracer.set_enabled(false);
    const double fps_traced =
        static_cast<double>(traced.frames) / traced.wall_s;
    report.set("obs.trace_overhead_pct",
               (static_cast<double>(sat.frames) / sat.wall_s / fps_traced -
                1.0) * 100.0,
               "%", traced.frames);

    Ledger ledger;
    trace_layers(rig, paced.specs[0], report, ledger);
    // Derived: stream 0's served latency minus the same frames' service
    // time when evaluated alone, both as medians.
    report.set("runtime.queue_wait_ms_p50",
               median(paced.stream0_latency_ms) -
                   median(ledger.samples(layer::kEvaluate)),
               "ms", paced.stream0_latency_ms.size());
    report.set("runtime.cpu_utilisation_pct",
               100.0 * sat.cpu_s / (sat.wall_s * kPoolThreads), "%",
               sat.frames);
    report.set_percentile("runtime.generator_late_ms_p90", paced.late_ms, 90,
                          "ms");
    std::uint64_t drops = 0;
    for (const rt::StreamResult& sr : paced.streams)
      drops += sr.backpressure_drops;
    report.set("runtime.backpressure_drops", static_cast<double>(drops),
               "count", paced.frames);
    write_spans(opts, ledger);
  }
  report.set("peak_rss_mb", peak_rss_mb(), "MiB", 1);
}

}  // namespace avdbench
