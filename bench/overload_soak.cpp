// Overload soak: 64 paced camera streams offered at 2x the accelerator's
// aggregate capacity, served through the overload-control plane (ISSUE 9).
//
// Capacity model: detect_workers = 4 at simulated_accel_ms = 4 ms/frame
// gives the fleet 1000 fps of full-fidelity scan throughput (sleep-bound,
// so the number holds on any host core count, exactly like
// runtime_scaling's accelerator-occupancy mode). Each of the 64 sources
// paces itself to 31.25 fps — 2000 fps offered, 2x capacity.
//
// What keeps admitted latency inside the budget is the admission plane,
// and that is what this bench guards:
//   * the per-stream token bucket (20 fps) sheds the raw excess at the
//     control stage before it can queue;
//   * a small DropOldest detect queue bounds how long any admitted frame
//     can wait behind the accelerator (the overflow surfaces as
//     backpressure drops, never as tail latency);
//   * those drops breach the queue_drops SLO rule, walking the degradation
//     ladder down to level 2 (skip-frame + tracker coast), tripling
//     effective capacity so the admitted load fits and the drops stop;
//   * fast-worsen / slow-recover hysteresis (recover_after_windows is set
//     beyond the soak's horizon) means the ladder settles instead of
//     flapping.
//
// Acceptance (guarded via bench_report checks -> scripts/bench_diff):
//   - p99 ingest->report latency of ADMITTED frames < 20 ms (one 50 fps
//     frame, the paper's budget) while the fleet is offered 2x capacity;
//   - shedding and the degradation ladder both actually engaged;
//   - no stream collapsed to level 3 (drop) and no ladder flapping
//     (bounded transitions per stream);
//   - every frame accounted, and no frame counted under two fates (shed,
//     dropped, coasted, degraded scan).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "avd/obs/metrics.hpp"
#include "avd/runtime/stream_server.hpp"
#include "bench_report.hpp"

namespace {

using Clock = std::chrono::steady_clock;

avd::core::TrainingBudget tiny_budget() {
  avd::core::TrainingBudget b;
  b.vehicle_pos = b.vehicle_neg = 30;
  b.pedestrian_pos = b.pedestrian_neg = 20;
  b.dbn_windows_per_class = 40;
  b.pairing_scenes = 20;
  return b;
}

/// A camera that produces frames in real time: next() releases frame i no
/// earlier than epoch + i * period. When the pipeline backpressures the
/// ingest worker, pending frames queue *at the source* (sleep_until in the
/// past returns immediately), so admitted-frame latency measures pipeline
/// time, not source pacing.
class PacedFrameSource final : public avd::runtime::FrameSource {
 public:
  /// `phase` staggers this camera against the rest of the fleet. Without
  /// it every source fires on the same tick and the fleet arrives as
  /// synchronized 64-frame bursts — which saturates any finite queue at
  /// every tick no matter how low the average load is.
  PacedFrameSource(avd::data::DriveSequence sequence,
                   std::chrono::microseconds period,
                   std::chrono::microseconds phase)
      : sequence_(std::move(sequence)), period_(period), phase_(phase) {}

  [[nodiscard]] int frame_count() const override {
    return sequence_.frame_count();
  }

  [[nodiscard]] std::optional<avd::data::SequenceFrame> next() override {
    if (next_ >= sequence_.frame_count()) return std::nullopt;
    if (next_ == 0) epoch_ = Clock::now() + phase_;
    std::this_thread::sleep_until(epoch_ + next_ * period_);
    return sequence_.frame(next_++);
  }

 private:
  avd::data::DriveSequence sequence_;
  std::chrono::microseconds period_;
  std::chrono::microseconds phase_;
  Clock::time_point epoch_;
  int next_ = 0;
};

}  // namespace

int main() {
  std::printf("=== bench: overload_soak ===\n\n");

  constexpr int kStreams = 64;
  constexpr int kFramesPerSegment = 20;  // canonical_drive: 6 segments -> 120
  constexpr int kDetectWorkers = 4;
  constexpr double kAccelMs = 4.0;       // fleet capacity: 4 / 4ms = 1000 fps
  constexpr double kOverload = 2.0;      // offered load vs capacity
  const double capacity_fps = kDetectWorkers * 1000.0 / kAccelMs;
  const double offered_fps = kOverload * capacity_fps;
  const double per_stream_fps = offered_fps / kStreams;
  const auto period = std::chrono::microseconds(
      static_cast<std::int64_t>(1e6 / per_stream_fps));

  std::printf("training models (tiny budget)...\n");
  avd::core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;  // control plane + accelerator occupancy
  const avd::core::AdaptiveSystem system(
      avd::core::build_system_models(tiny_budget()), cfg);

  std::vector<std::unique_ptr<avd::runtime::FrameSource>> sources;
  int total_frames = 0;
  for (int i = 0; i < kStreams; ++i) {
    avd::data::SequenceSpec spec = avd::data::DriveSequence::canonical_drive(
        {240, 136}, kFramesPerSegment);
    spec.seed = 9000 + static_cast<std::uint64_t>(i);
    avd::data::DriveSequence seq(spec);
    total_frames += seq.frame_count();
    sources.push_back(std::make_unique<PacedFrameSource>(
        std::move(seq), period, i * period / kStreams));
  }

  avd::runtime::StreamServerConfig sc;
  sc.ingest_workers = kStreams;  // one paced source per worker, no HOL block
  sc.detect_workers = kDetectWorkers;
  // The latency contract is enforced structurally: four workers drain the
  // detect queue at ~1 ms/slot, so an 8-deep DropOldest queue bounds an
  // admitted frame's wait at ~8 ms before its own 4 ms dispatch — inside
  // the 20 ms budget even while the ladder is still reacting. Overflow
  // becomes low-latency backpressure-drop reports (vehicle_processed =
  // false) instead of tail latency — and keeps ingest unblocked, so the
  // token bucket sees the true 2x offered rate rather than a backpressured
  // trickle.
  sc.queue_capacity = 8;
  sc.detect_policy = avd::runtime::OverflowPolicy::DropOldest;
  sc.simulated_accel_ms = kAccelMs;
  // SLO plane: 100 ms windows so each 31 fps stream has ~3 frames per
  // window (tight windows would mostly be empty and the health signal
  // noise). The unhealthy thresholds are unreachable on purpose:
  // health-driven level 3 is out of bounds for this soak.
  sc.slo.enabled = true;
  sc.slo.frame_budget_ms = 20.0;
  sc.slo.telemetry_period = std::chrono::milliseconds(100);
  sc.slo.hysteresis.clears_to_recover = 2;
  sc.slo.deadline_miss_degraded = 0.05;
  sc.slo.deadline_miss_unhealthy = 2.0;  // never: level 3 is not an option
  sc.slo.drop_rate_degraded = 0.02;      // the ladder's trigger under load
  sc.slo.drop_rate_unhealthy = 2.0;      // never
  // Admission plane: each stream may admit 20 fps (64 x 20 = 1280 fps of
  // admitted load; at level 2 only 1/3 of those are scans, comfortably
  // under the 1000 fps accelerator). The escalation dwell (5 windows) must
  // exceed the health machine's recovery lag (clears_to_recover = 2: a
  // stream whose drops just stopped still *reports* Degraded for 2 more
  // windows), otherwise the lag reads as continued distress. Degraded
  // escalation is capped at level 2: level 3 (drop the stream) is reserved
  // for UNHEALTHY/watchdog/fault-plan events, so the residual drop noise
  // of a shared 88%-utilized queue can never push an unlucky stream into
  // shedding everything. Recovery is pushed past the soak's horizon so the
  // ladder settles once and stays — the no-flapping check.
  sc.admission.enabled = true;
  sc.admission.bucket.rate_fps = 20.0;
  sc.admission.bucket.burst = 4;
  sc.admission.ladder.skip_modulus = 3;
  sc.admission.ladder.escalate_after_windows = 5;
  sc.admission.ladder.max_degraded_level = 2;
  sc.admission.ladder.recover_after_windows = 100000;

  avd::runtime::StreamServer server(system, sc);

  std::printf("serving %d streams x %d frames at %.1f fps each "
              "(%.0f fps offered vs %.0f fps capacity)...\n",
              kStreams, total_frames / kStreams, per_stream_fps, offered_fps,
              capacity_fps);
  const Clock::time_point t0 = Clock::now();
  const std::vector<avd::runtime::StreamResult> results =
      server.serve(std::move(sources));
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  // --- accounting -------------------------------------------------------
  std::uint64_t shed = 0, coasted = 0, degraded_scans = 0, frames = 0;
  std::uint64_t drops = 0;
  int max_level = 0;
  std::size_t max_transitions = 0;
  int streams_coasting = 0, streams_level3 = 0;
  bool watchdog = false, source_failed = false;
  for (const auto& r : results) {
    shed += r.shed_frames;
    drops += r.backpressure_drops;
    coasted += r.coasted_frames;
    degraded_scans += r.degraded_scans;
    frames += r.report.frames.size();
    max_level = std::max(max_level, static_cast<int>(r.degrade_level));
    max_transitions = std::max(max_transitions, r.degrade_transitions.size());
    if (r.coasted_frames > 0) ++streams_coasting;
    if (r.degrade_level == avd::runtime::DegradeLevel::Shed) ++streams_level3;
    watchdog = watchdog || r.watchdog_fired;
    source_failed = source_failed || r.source_failed;
  }
  std::uint64_t shed_by_bucket = 0;
  int level_histogram[4] = {0, 0, 0, 0};
  for (const auto& stream : server.obs_view().streams)
    shed_by_bucket += stream.stats.shed_by_bucket;
  for (const auto& r : results)
    ++level_histogram[std::clamp(static_cast<int>(r.degrade_level), 0, 3)];
  const double admitted = static_cast<double>(frames - shed);
  const double shed_rate = 100.0 * static_cast<double>(shed) /
                           static_cast<double>(frames);
  const double coast_rate = 100.0 * static_cast<double>(coasted) /
                            static_cast<double>(frames);
  const auto pct_ms = [](double p) {
    return static_cast<double>(
               avd::obs::MetricsRegistry::global()
                   .histogram("runtime.frame.admitted_latency_ns")
                   .percentile_ns(p)) /
           1e6;
  };
  const double p50_ms = pct_ms(0.50);
  const double p99_ms = pct_ms(0.99);

  std::printf("\nsoak: %.2f s wall, %llu frames (%llu shed, %llu dropped, "
              "%llu coasted, %llu degraded scans)\n",
              seconds, static_cast<unsigned long long>(frames),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(drops),
              static_cast<unsigned long long>(coasted),
              static_cast<unsigned long long>(degraded_scans));
  std::printf("admitted-frame latency: p50 %.3f ms, p99 %.3f ms "
              "(budget 20 ms)\n", p50_ms, p99_ms);
  std::printf("ladder: %d/%d streams coasting at level 2, max level %d, "
              "max transitions/stream %zu\n",
              streams_coasting, kStreams, max_level, max_transitions);
  std::printf("final levels: %d full / %d coarse / %d skip-coast / %d shed; "
              "%llu of %llu sheds were the token bucket\n",
              level_histogram[0], level_histogram[1], level_histogram[2],
              level_histogram[3],
              static_cast<unsigned long long>(shed_by_bucket),
              static_cast<unsigned long long>(shed));

  avd::bench::BenchReport report("overload_soak");
  report.metric("overload.admitted_latency_p99_ms", p99_ms, "ms", "lower");
  report.metric("overload.admitted_latency_p50_ms", p50_ms, "ms", "lower");
  report.metric("overload.shed_rate_pct", shed_rate, "%", "lower");
  report.metric("overload.drop_rate_pct",
                100.0 * static_cast<double>(drops) /
                    static_cast<double>(frames),
                "%", "lower");
  report.metric("overload.coast_rate_pct", coast_rate, "%", "higher");
  report.metric("overload.max_transitions_per_stream",
                static_cast<double>(max_transitions), "transitions", "lower");
  report.metric("overload.admitted_fps", admitted / seconds, "fps", "higher");
  report.check("admitted_p99_under_20ms", p99_ms < 20.0);
  report.check("shed_engaged", shed > 0);
  // Equilibrium needs only ~1/3 of the fleet coasting (see the config
  // comment); a quarter is the floor below which the ladder plainly never
  // engaged.
  report.check("ladder_engaged", streams_coasting >= kStreams / 4);
  report.check("no_stream_dropped",
               streams_level3 == 0 && !watchdog && !source_failed);
  report.check("no_flapping", max_transitions <= 4);
  report.check("all_frames_accounted",
               frames == static_cast<std::uint64_t>(total_frames));
  // Each frame has at most one of these fates (it may have none: a
  // full-fidelity scan), so their sum can never pass the frame count.
  report.check("outcomes_counted_once",
               shed + drops + coasted + degraded_scans <= frames);
  report.note("load_model",
              "64 paced streams, 2x accelerator capacity (4 workers x 4 ms), "
              "20 fps/stream token bucket, SLO ladder to level 2");
  report.write();
  return 0;
}
