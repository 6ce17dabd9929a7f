// day_dusk_640 and night_1080.
//
// Frames are pre-rendered into a ring during set-up (the camera produces
// pixels, the system does not). One caller then runs a closed loop over the
// ring, back to back: AdaptiveSystem::detect_vehicles with the frame's
// model, img::rgb_to_gray, AdaptiveSystem::detect_pedestrians and
// det::match_detections, on a ThreadPool of 3 workers plus the caller.
#include <algorithm>
#include <memory>

#include "avd/image/color.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace avdbench {
namespace {

namespace core = avd::core;
namespace data = avd::data;
namespace det = avd::det;
namespace img = avd::img;

constexpr int kPoolWorkers = 3;      // plus the caller-helping caller
constexpr double kPoolThreads = kPoolWorkers + 1;
constexpr std::size_t kMinLoopFrames = 120;  // p90 with >= 10 beyond it
constexpr int kTraceBlocks = 3;  // untraced/traced alternations per traced run

struct FrameSpec {
  img::Size size;
  std::vector<data::DriveSegment> segments;
  int traced_frames = 0;    ///< ring slots decomposed layer by layer
  int evaluate_frames = 0;  ///< ring slots run through evaluate_frame
};

FrameSpec frame_spec(const std::string& workload) {
  using data::LightingCondition;
  FrameSpec s;
  if (workload == "day_dusk_640") {
    s.size = {640, 360};
    for (int i = 0; i < 8; ++i)
      s.segments.push_back(
          {i % 2 == 0 ? LightingCondition::Day : LightingCondition::Dusk, 8});
    s.traced_frames = 16;
    s.evaluate_frames = 8;
  } else {
    s.size = {1920, 1080};
    s.segments.push_back({LightingCondition::Dark, 24});
    s.traced_frames = 6;
    s.evaluate_frames = 2;
  }
  return s;
}

/// One set-up's products. The pool is declared first so it outlives the
/// system that points at it.
struct Rig {
  std::unique_ptr<avd::runtime::ThreadPool> pool;
  std::unique_ptr<core::AdaptiveSystem> system;
  std::vector<data::SequenceFrame> metas;
  std::vector<img::RgbImage> frames;
  std::vector<double> render_ms;
};

Rig set_up(const FrameSpec& spec, std::uint64_t seed) {
  Rig rig;
  core::SystemModels models = train_models();
  rig.pool = std::make_unique<avd::runtime::ThreadPool>(kPoolWorkers);
  core::AdaptiveSystemConfig cfg;
  cfg.sliding.pool = rig.pool.get();
  rig.system = std::make_unique<core::AdaptiveSystem>(std::move(models), cfg);

  data::SequenceSpec ss;
  ss.frame_size = spec.size;
  ss.segments = spec.segments;
  ss.seed = input_seed(seed, 0);
  const data::DriveSequence sequence(ss);
  const int n = sequence.frame_count();
  rig.metas.resize(static_cast<std::size_t>(n));
  rig.frames.resize(static_cast<std::size_t>(n));
  rig.render_ms.resize(static_cast<std::size_t>(n));
  rig.pool->run_indexed(n, [&](int i) {
    const auto u = static_cast<std::size_t>(i);
    rig.metas[u] = sequence.frame(i);
    const Clock::time_point t0 = Clock::now();
    rig.frames[u] = data::render_scene(rig.metas[u].scene);
    rig.render_ms[u] = ms_between(t0, Clock::now());
  });
  return rig;
}

/// Per-slot detections of a pass with no scan pool: the reference every
/// timed frame must reproduce bit for bit.
struct Reference {
  std::vector<std::vector<det::Detection>> vehicles, pedestrians;
};

Reference reference_pass(const Rig& rig) {
  core::AdaptiveSystemConfig cfg = rig.system->config();
  cfg.sliding.pool = nullptr;
  const core::AdaptiveSystem single(rig.system->models(), cfg);
  const std::size_t n = rig.frames.size();
  Reference ref;
  ref.vehicles.resize(n);
  ref.pedestrians.resize(n);
  // Frames in parallel, each scanned single-threaded by the pool-less system.
  rig.pool->run_indexed(static_cast<int>(n), [&](int i) {
    const auto u = static_cast<std::size_t>(i);
    ref.vehicles[u] =
        single.detect_vehicles(rig.frames[u], rig.metas[u].condition);
    ref.pedestrians[u] =
        single.detect_pedestrians(img::rgb_to_gray(rig.frames[u]));
  });
  return ref;
}

struct LoopResult {
  /// Per frame: the whole frame; the vehicle engine; the pedestrian engine;
  /// the idle gap between the previous frame's result and this frame's
  /// start.
  std::vector<double> frame, vehicle, pedestrian, gap;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t mismatches = 0;
  [[nodiscard]] std::uint64_t frames() const { return frame.size(); }
};

/// Runs the closed loop for `seconds` and at least `min_frames` frames,
/// appending every timed frame to `r`.
void closed_loop(const Rig& rig, const Reference& ref, double seconds,
                 std::size_t min_frames, LoopResult& r) {
  const core::AdaptiveSystem& sys = *rig.system;
  const double iou = sys.config().match_iou;
  const std::size_t n = rig.frames.size();
  const auto one_frame = [&](std::size_t slot, LoopResult* out,
                             Clock::time_point prev_end) {
    const img::RgbImage& frame = rig.frames[slot];
    const Clock::time_point t0 = Clock::now();
    const std::vector<det::Detection> v =
        sys.detect_vehicles(frame, rig.metas[slot].condition);
    const Clock::time_point t1 = Clock::now();
    const img::ImageU8 gray = img::rgb_to_gray(frame);
    const Clock::time_point t2 = Clock::now();
    const std::vector<det::Detection> p = sys.detect_pedestrians(gray);
    const Clock::time_point t3 = Clock::now();
    (void)det::match_detections(v, vehicle_truth(rig.metas[slot].scene), iou);
    const Clock::time_point t4 = Clock::now();
    if (out == nullptr) return t4;
    out->frame.push_back(ms_between(t0, t4));
    out->vehicle.push_back(ms_between(t0, t1));
    out->pedestrian.push_back(ms_between(t2, t3));
    out->gap.push_back(ms_between(prev_end, t0));
    if (!same_detections(v, ref.vehicles[slot]) ||
        !same_detections(p, ref.pedestrians[slot]))
      ++out->mismatches;
    return t4;
  };

  // Warm the pool threads and caches on a few untimed frames.
  Clock::time_point prev = Clock::now();
  for (std::size_t i = 0; i < std::min<std::size_t>(n, 3); ++i)
    prev = one_frame(i, nullptr, prev);

  const double cap_s = std::max(3.0 * seconds, seconds + 30.0);
  const std::size_t first = r.frames();
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  prev = start;
  for (std::size_t k = 0;; ++k) {
    prev = one_frame(k % n, &r, prev);
    const double elapsed = ms_between(start, prev) / 1e3;
    if ((elapsed >= seconds && r.frames() - first >= min_frames) ||
        elapsed >= cap_s)
      break;
  }
  r.wall_s += ms_between(start, Clock::now()) / 1e3;
  r.cpu_s += process_cpu_seconds() - cpu0;
}

void gate_loop(Report& report, const std::string& name, const LoopResult& r) {
  report.attempt(r.frames());
  report.gate(name, r.mismatches == 0, r.mismatches);
}

/// The traced decomposition: every layer's public call on `frames` ring
/// slots, single-threaded, plus the core/soc probes on the ring's metadata.
void trace_layers(const Rig& rig, const FrameSpec& spec, const Reference& ref,
                  Report& report, Ledger& ledger) {
  const core::AdaptiveSystem& sys = *rig.system;
  const core::SystemModels& models = sys.models();
  const int n = static_cast<int>(rig.frames.size());
  const int traced = std::min(n, spec.traced_frames);
  const ScanCounters before = ScanCounters::read();
  for (int j = 0; j < traced; ++j) {
    const auto slot = static_cast<std::size_t>(j * n / traced);
    const img::RgbImage& frame = rig.frames[slot];
    const data::LightingCondition cond = rig.metas[slot].condition;
    const img::ImageU8 gray = ledger.time(
        layer::kGrey, j, [&] { return img::rgb_to_gray(frame); });
    // Vehicle engine: the dark path on dark frames, the HOG scan otherwise.
    // On day/dusk frames the dark layers are off the frame path; they are
    // still run here on the same frames so the ledger has their cost.
    if (cond != data::LightingCondition::Dark)
      trace_hog_scan(ledger, j, gray, models.vehicle_model_for(cond),
                     sys.config().sliding);
    trace_dark_path(ledger, j, frame, models.dark);
    trace_hog_scan(ledger, j, gray, models.pedestrian, sys.config().sliding);
    (void)ledger.time(layer::kMatch, j, [&] {
      return det::match_detections(ref.vehicles[slot],
                                   vehicle_truth(rig.metas[slot].scene),
                                   sys.config().match_iou);
    });
  }
  report_layers(report, ledger, traced,
                ScanCounters::read().minus(before));

  // Control plane over the ring's metadata (off the frame path here).
  std::vector<int> evaluate;
  const int evaluated = std::min(n, spec.evaluate_frames);
  for (int j = 0; j < evaluated; ++j) evaluate.push_back(j * n / evaluated);
  trace_control(sys, rig.metas, evaluate, report, ledger);
}

}  // namespace

void run_frame_workload(const Options& opts, Report& report) {
  const FrameSpec spec = frame_spec(opts.workload);

  const Rig rig =
      repeated_set_up(report, [&] { return set_up(spec, opts.seed); });

  const Reference ref = reference_pass(rig);
  Quality quality;
  for (std::size_t i = 0; i < rig.frames.size(); ++i)
    quality.add(det::match_detections(ref.vehicles[i],
                                      vehicle_truth(rig.metas[i].scene),
                                      rig.system->config().match_iou));
  quality.report(report);

  avd::obs::Tracer& tracer = avd::obs::Tracer::global();
  if (!opts.trace) {
    LoopResult r;
    closed_loop(rig, ref, opts.seconds, kMinLoopFrames, r);
    gate_loop(report, "loop_matches_no_pool_pass", r);
    report.set_percentile("frame_ms_p50", r.frame, 50, "ms");
    report.set_percentile("frame_ms_p90", r.frame, 90, "ms");
    report.set_percentile("vehicle_ms_p50", r.vehicle, 50, "ms");
    report.set_percentile("pedestrian_ms_p50", r.pedestrian, 50, "ms");
    report.set("serve_fps", static_cast<double>(r.frames()) / r.wall_s, "1/s",
               r.frames());
    report.set("cpu_ms_per_frame",
               r.cpu_s * 1e3 / static_cast<double>(r.frames()), "ms",
               r.frames());
  } else {
    Ledger ledger;
    for (std::size_t i = 0; i < rig.render_ms.size(); ++i)
      ledger.add(layer::kRender, static_cast<int>(i), rig.render_ms[i]);
    report.set(layer::kRender,
               ledger.per_frame(layer::kRender,
                                static_cast<int>(rig.render_ms.size())),
               "ms", rig.render_ms.size());

    // Untraced and traced blocks alternate so drift (clocks, caches) lands
    // on both sides of obs.trace_overhead_pct.
    LoopResult plain, traced;
    for (int block = 0; block < kTraceBlocks; ++block) {
      closed_loop(rig, ref, opts.seconds / (2 * kTraceBlocks),
                  kMinLoopFrames / kTraceBlocks, plain);
      tracer.set_enabled(true);
      closed_loop(rig, ref, opts.seconds / (2 * kTraceBlocks),
                  kMinLoopFrames / kTraceBlocks, traced);
      tracer.set_enabled(false);
    }
    gate_loop(report, "loop_matches_no_pool_pass", plain);
    gate_loop(report, "traced_loop_matches_no_pool_pass", traced);
    const std::optional<double> p50 = percentile(plain.frame, 50);
    const std::optional<double> p50_traced = percentile(traced.frame, 50);
    report.gate("enough_samples_for_obs.trace_overhead_pct",
                p50.has_value() && p50_traced.has_value());
    report.set("obs.trace_overhead_pct",
               (p50_traced.value_or(0) / p50.value_or(1) - 1.0) * 100.0, "%",
               traced.frames());

    trace_layers(rig, spec, ref, report, ledger);

    // A closed loop has no queue and no generator: a frame is due the
    // moment the previous one finished, so both runtime waits are the idle
    // gap between frames, which reads near zero by construction.
    report.set_percentile("runtime.queue_wait_ms_p50", plain.gap, 50, "ms");
    report.set_percentile("runtime.generator_late_ms_p90", plain.gap, 90, "ms");
    report.set("runtime.cpu_utilisation_pct",
               100.0 * plain.cpu_s / (plain.wall_s * kPoolThreads), "%",
               plain.frames());
    report.set("runtime.backpressure_drops", 0, "count", plain.frames());
    write_spans(opts, ledger);
  }
  report.set("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  report.note("ring_frames", std::to_string(rig.frames.size()));
}

}  // namespace avdbench
