// Figs. 3-4 reproduction: the dark-condition pipeline stage by stage —
// chroma/luma threshold + AND merge, downsample, closing, sliding DBN,
// spatial correlation & matching.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "avd/detect/dark_training.hpp"
#include "avd/image/color.hpp"
#include "avd/image/morphology.hpp"
#include "avd/image/resize.hpp"
#include "avd/image/threshold.hpp"
#include "avd/soc/hw_pipeline.hpp"

namespace {

void print_stage_table() {
  using namespace avd::soc;
  std::printf("=== bench: fig4_dark_pipeline ===\n\n");
  const HwPipelineModel m = dark_pipeline_model();
  std::printf("Pipeline stages (Fig. 4), fabric %llu MHz:\n",
              static_cast<unsigned long long>(m.fabric_mhz));
  std::printf("%-26s %16s %14s\n", "stage", "fill latency", "line buffers");
  for (const PipelineStage& s : m.stages)
    std::printf("%-26s %10llu cyc %14d\n", s.name.c_str(),
                static_cast<unsigned long long>(s.fill_latency_cycles),
                s.line_buffers);
  std::printf("HDTV frame time: %.2f ms -> %.1f fps\n\n",
              m.frame_time(kHdtvFrame).as_ms(), m.max_fps(kHdtvFrame));
}

const avd::det::DarkVehicleDetector& detector() {
  static const avd::det::DarkVehicleDetector d = [] {
    avd::det::DarkTrainingSpec spec;
    spec.windows.per_class = 120;
    spec.dbn.pretrain.epochs = 12;
    spec.dbn.finetune_epochs = 30;
    spec.pairing_scenes = 60;
    return avd::det::train_dark_detector(spec);
  }();
  return d;
}

const avd::img::RgbImage& frame() {
  static const avd::img::RgbImage f = [] {
    avd::data::SceneGenerator gen(avd::data::LightingCondition::Dark, 4);
    return avd::data::render_scene(gen.random_scene({1920, 1080}, 3));
  }();
  return f;
}

void BM_Stage1_SplitAndThreshold(benchmark::State& state) {
  for (auto _ : state) {
    const avd::img::YcbcrImage ycc = avd::img::rgb_to_ycbcr(frame());
    benchmark::DoNotOptimize(avd::img::taillight_roi_mask(ycc));
  }
}
BENCHMARK(BM_Stage1_SplitAndThreshold)->Unit(benchmark::kMillisecond);

void BM_Stage2_Downsample(benchmark::State& state) {
  const avd::img::ImageU8 mask =
      avd::img::taillight_roi_mask(avd::img::rgb_to_ycbcr(frame()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(avd::img::downsample_or(mask, 3));
  }
}
BENCHMARK(BM_Stage2_Downsample)->Unit(benchmark::kMillisecond);

// Stages 1 and 2 as DarkVehicleDetector::preprocess runs them: one streaming
// pass from RGB to the OR-pooled 640x360 mask, byte-identical to the two
// rows above chained.
void BM_Stage1to2_FusedMask(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(avd::img::taillight_roi_mask(frame(), {}, 3));
  }
}
BENCHMARK(BM_Stage1to2_FusedMask)->Unit(benchmark::kMillisecond);

void BM_Stage3_Closing(benchmark::State& state) {
  const avd::img::ImageU8 ds = avd::img::taillight_roi_mask(frame(), {}, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(avd::img::close(ds, {3, 3}));
  }
}
BENCHMARK(BM_Stage3_Closing)->Unit(benchmark::kMillisecond);

void BM_Stage4_SlidingDbn(benchmark::State& state) {
  const avd::img::ImageU8 binary = detector().preprocess(frame());
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector().detect_taillights(binary));
  }
}
BENCHMARK(BM_Stage4_SlidingDbn)->Unit(benchmark::kMillisecond);

void BM_Stage5_SpatialMatching(benchmark::State& state) {
  const auto lights =
      detector().detect_taillights(detector().preprocess(frame()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector().pair_taillights(lights));
  }
}
BENCHMARK(BM_Stage5_SpatialMatching)->Unit(benchmark::kMicrosecond);

void BM_FullDarkPipeline_Hdtv(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector().detect(frame()));
  }
}
BENCHMARK(BM_FullDarkPipeline_Hdtv)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_stage_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
