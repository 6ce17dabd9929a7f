// Multiscale scan throughput: the block-grid scanner against the scalar
// reference path.
//
// Three configurations over the same two-model (vehicle + animal) scan of a
// 320x200 frame:
//   reference    — per-window descriptor assembly + full-length dot product
//                  (the pre-block-grid scan path, kept as the oracle)
//   blockgrid_1t — each block normalised once into a per-level ring of block
//                  rows, sliced dot products, single-threaded
//   blockgrid_4t — same, with pyramid levels on a 4-thread
//                  avd::runtime::ThreadPool
//
// The block rows remove the per-window L2-hys renormalisation (each
// overlapping block was normalised up to ~49 times per 64x64 window); the
// pool adds core scaling on top. Acceptance: >= 3x throughput at 4 threads
// vs the single-thread reference, with detections identical across all
// three configurations.
//
// The 320x200 frame's blocks fit in cache whatever the scanner keeps, so a
// second pair of rows scans a rendered 1920x1080 day frame with the
// pedestrian model at 1 and 4 threads (fullhd_ped_1t / fullhd_ped_4t),
// where a level's blocks outgrow L2 unless they stream through the ring.
// Both must match the reference scan of that frame.
#include <chrono>
#include <cstdio>
#include <vector>

#include "avd/detect/multi_model_scan.hpp"
#include "avd/image/color.hpp"
#include "avd/runtime/thread_pool.hpp"
#include "bench_report.hpp"

namespace {

using avd::det::Detection;
using avd::det::HogSvmModel;
using avd::det::SlidingWindowParams;
using Clock = std::chrono::steady_clock;

avd::img::ImageU8 make_fullhd_frame() {
  avd::data::SceneGenerator gen(avd::data::LightingCondition::Day, 1303);
  return avd::img::rgb_to_gray(
      avd::data::render_scene(gen.random_scene({1920, 1080}, 3, 2)));
}

avd::img::ImageU8 make_frame() {
  avd::data::SceneSpec scene;
  scene.condition = avd::data::LightingCondition::Day;
  scene.frame_size = {320, 200};
  scene.horizon_y = 60;
  avd::data::VehicleSpec v;
  v.body = {48, 90, 84, 66};
  scene.vehicles.push_back(v);
  avd::data::AnimalSpec a;
  a.body = {210, 100, 72, 54};
  scene.animals.push_back(a);
  scene.noise_seed = 5;
  return avd::img::rgb_to_gray(avd::data::render_scene(scene));
}

bool detections_identical(const std::vector<Detection>& a,
                          const std::vector<Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i].box == b[i].box) || a[i].score != b[i].score ||
        a[i].class_id != b[i].class_id)
      return false;
  return true;
}

/// Scans per second: repeat until ~1.5 s of wall clock (at least 3 reps).
template <typename Fn>
double measure(const Fn& scan, std::vector<Detection>* out) {
  *out = scan();  // warm-up + canonical result
  int reps = 0;
  const Clock::time_point t0 = Clock::now();
  double seconds = 0.0;
  do {
    (void)scan();
    ++reps;
    seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (reps < 3 || seconds < 1.5);
  return reps / seconds;
}

}  // namespace

int main() {
  std::printf("=== bench: scan_throughput ===\n\n");
  avd::bench::BenchReport report("scan_throughput");

  std::printf("training models (vehicle + animal + pedestrian)...\n");
  avd::data::VehiclePatchSpec vspec;
  vspec.n_positive = vspec.n_negative = 80;
  vspec.seed = 11;
  const HogSvmModel vehicle =
      avd::det::train_hog_svm(avd::data::make_vehicle_patches(vspec), "vehicle");
  avd::data::AnimalPatchSpec aspec;
  aspec.n_positive = aspec.n_negative = 80;
  aspec.seed = 12;
  avd::det::HogSvmTrainOptions aopts;
  aopts.class_id = avd::det::kClassAnimal;
  const HogSvmModel animal =
      avd::det::train_hog_svm(avd::data::make_animal_patches(aspec), "animal", aopts);
  const HogSvmModel* models[] = {&vehicle, &animal};
  avd::data::PedestrianPatchSpec pspec;
  pspec.n_positive = pspec.n_negative = 80;
  avd::det::HogSvmTrainOptions popts;
  popts.class_id = avd::det::kClassPedestrian;
  const HogSvmModel pedestrian = avd::det::train_hog_svm(
      avd::data::make_pedestrian_patches(pspec), "pedestrian", popts);
  const HogSvmModel* ped_models[] = {&pedestrian};

  const avd::img::ImageU8 frame = make_frame();
  SlidingWindowParams params;
  params.score_threshold = 0.0;

  std::vector<Detection> ref_dets, bg1_dets, bg4_dets;
  const double ref_sps = measure(
      [&] {
        return avd::det::detect_multiscale_multi_reference(frame, models,
                                                           params);
      },
      &ref_dets);
  const double bg1_sps = measure(
      [&] { return avd::det::detect_multiscale_multi(frame, models, params); },
      &bg1_dets);
  avd::runtime::ThreadPool pool(4);
  params.pool = &pool;
  const double bg4_sps = measure(
      [&] { return avd::det::detect_multiscale_multi(frame, models, params); },
      &bg4_dets);

  const avd::img::ImageU8 fullhd = make_fullhd_frame();
  params.pool = nullptr;
  const std::vector<Detection> hd_ref_dets =
      avd::det::detect_multiscale_multi_reference(fullhd, ped_models, params);
  std::vector<Detection> hd1_dets, hd4_dets;
  const double hd1_sps = measure(
      [&] {
        return avd::det::detect_multiscale_multi(fullhd, ped_models, params);
      },
      &hd1_dets);
  params.pool = &pool;
  const double hd4_sps = measure(
      [&] {
        return avd::det::detect_multiscale_multi(fullhd, ped_models, params);
      },
      &hd4_dets);

  const double speedup_1t = ref_sps > 0.0 ? bg1_sps / ref_sps : 0.0;
  const double speedup_4t = ref_sps > 0.0 ? bg4_sps / ref_sps : 0.0;
  const bool identical = detections_identical(ref_dets, bg1_dets) &&
                         detections_identical(ref_dets, bg4_dets);
  const bool hd_identical = detections_identical(hd_ref_dets, hd1_dets) &&
                            detections_identical(hd_ref_dets, hd4_dets);

  std::printf("\n%-14s | %10s | %8s | %9s\n", "configuration", "scans/s",
              "speedup", "identical");
  std::printf("%-14s | %10.2f | %8s | %9s\n", "reference", ref_sps, "1.00x",
              "-");
  std::printf("%-14s | %10.2f | %7.2fx | %9s\n", "blockgrid_1t", bg1_sps,
              speedup_1t, detections_identical(ref_dets, bg1_dets) ? "yes" : "NO");
  std::printf("%-14s | %10.2f | %7.2fx | %9s\n", "blockgrid_4t", bg4_sps,
              speedup_4t, detections_identical(ref_dets, bg4_dets) ? "yes" : "NO");
  std::printf("  (320x200 frame, 2 models, %zu detections)\n", ref_dets.size());
  std::printf("%-14s | %10.2f | %8s | %9s\n", "fullhd_ped_1t", hd1_sps, "-",
              detections_identical(hd_ref_dets, hd1_dets) ? "yes" : "NO");
  std::printf("%-14s | %10.2f | %8s | %9s\n", "fullhd_ped_4t", hd4_sps, "-",
              detections_identical(hd_ref_dets, hd4_dets) ? "yes" : "NO");
  std::printf("  (1920x1080 frame, pedestrian model, %zu detections)\n\n",
              hd_ref_dets.size());
  std::printf("acceptance >=3x at 4 threads vs reference: %s\n",
              speedup_4t >= 3.0 ? "PASS" : "FAIL");

  report.metric("reference.scans_per_s", ref_sps, "1/s");
  report.metric("blockgrid_1t.scans_per_s", bg1_sps, "1/s");
  report.metric("blockgrid_4t.scans_per_s", bg4_sps, "1/s");
  report.metric("blockgrid_1t.speedup", speedup_1t, "x");
  report.metric("blockgrid_4t.speedup", speedup_4t, "x");
  report.metric("fullhd_ped_1t.scans_per_s", hd1_sps, "1/s");
  report.metric("fullhd_ped_4t.scans_per_s", hd4_sps, "1/s");
  report.check("detections_identical_across_configs", identical);
  report.check("fullhd_detections_identical_to_reference", hd_identical);
  report.check("speedup_4t_at_least_3x", speedup_4t >= 3.0);
  report.note("workload",
              "320x200 day scene, vehicle+animal models, score_threshold 0, "
              "default 1.25-step pyramid; fullhd_ped: 1920x1080 day scene "
              "(SceneGenerator seed 1303), pedestrian model");
  report.write();
  return identical && hd_identical ? 0 : 1;
}
