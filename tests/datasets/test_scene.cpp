#include "avd/datasets/scene.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "avd/datasets/sensor_noise.hpp"
#include "avd/image/color.hpp"
#include "avd/image/stats.hpp"
#include "avd/image/threshold.hpp"

namespace avd::data {
namespace {

TEST(VehicleSpec, TaillightBoxesInsideBody) {
  VehicleSpec v;
  v.body = {100, 50, 64, 48};
  const auto [left, right] = v.taillight_boxes();
  EXPECT_TRUE(v.body.contains(left));
  EXPECT_TRUE(v.body.contains(right));
  EXPECT_LT(left.right(), right.x);  // disjoint, left of right
  EXPECT_EQ(left.y, right.y);        // level
}

TEST(VehicleSpec, TaillightBoxesScaleWithBody) {
  VehicleSpec small, big;
  small.body = {0, 0, 28, 22};
  big.body = {0, 0, 280, 220};
  EXPECT_LT(small.taillight_boxes().first.width,
            big.taillight_boxes().first.width);
}

TEST(RenderScene, FrameSizeAndDeterminism) {
  SceneGenerator gen(LightingCondition::Day, 42);
  const SceneSpec spec = gen.random_scene({320, 180}, 2, 1);
  const img::RgbImage a = render_scene(spec);
  const img::RgbImage b = render_scene(spec);
  EXPECT_EQ(a.size(), (img::Size{320, 180}));
  EXPECT_EQ(a.r(), b.r());  // same spec -> identical pixels
  EXPECT_EQ(a.g(), b.g());
  EXPECT_EQ(a.b(), b.b());
}

TEST(RenderScene, BrightnessFollowsCondition) {
  auto mean_of = [](LightingCondition c) {
    SceneGenerator gen(c, 7);
    const img::RgbImage frame = render_scene(gen.random_scene({160, 90}, 1));
    return img::mean_intensity(img::rgb_to_gray(frame));
  };
  const double day = mean_of(LightingCondition::Day);
  const double dusk = mean_of(LightingCondition::Dusk);
  const double dark = mean_of(LightingCondition::Dark);
  EXPECT_GT(day, dusk);
  EXPECT_GT(dusk, dark);
  EXPECT_LT(dark, 30.0);
}

TEST(RenderScene, DarkSceneTaillightsPassChromaGate) {
  SceneGenerator gen(LightingCondition::Dark, 11);
  SceneSpec spec = gen.random_scene({240, 135}, 1);
  const img::RgbImage frame = render_scene(spec);
  const img::ImageU8 mask =
      img::taillight_roi_mask(img::rgb_to_ycbcr(frame));
  // Both taillights of the vehicle must light up the ROI mask.
  const auto [lb, rb] = spec.vehicles[0].taillight_boxes();
  EXPECT_GT(img::count_nonzero(mask.crop(img::inflated(lb, 1))), 0u);
  EXPECT_GT(img::count_nonzero(mask.crop(img::inflated(rb, 1))), 0u);
}

TEST(RenderScene, DayTaillightsDoNotPassChromaGate) {
  SceneGenerator gen(LightingCondition::Day, 11);
  SceneSpec spec = gen.random_scene({240, 135}, 1);
  spec.distractors.clear();
  const img::RgbImage frame = render_scene(spec);
  const img::ImageU8 mask =
      img::taillight_roi_mask(img::rgb_to_ycbcr(frame));
  const auto [lb, rb] = spec.vehicles[0].taillight_boxes();
  EXPECT_EQ(img::count_nonzero(mask.crop(lb)), 0u);
  EXPECT_EQ(img::count_nonzero(mask.crop(rb)), 0u);
}

TEST(RenderScene, ForcedLightsOverrideAmbient) {
  SceneSpec spec;
  spec.condition = LightingCondition::Day;
  spec.frame_size = {100, 100};
  spec.horizon_y = 20;
  VehicleSpec v;
  v.body = {20, 40, 60, 45};
  v.force_lights = true;
  v.taillights_lit = true;
  spec.vehicles.push_back(v);
  const img::RgbImage frame = render_scene(spec);
  const auto [lb, rb] = v.taillight_boxes();
  // Lit lamp core is saturated red even in daylight.
  EXPECT_GT(frame.pixel(lb.center().x, lb.center().y).r, 200);
}

TEST(RenderScene, AmbientOverrideRespected) {
  SceneGenerator gen(LightingCondition::Day, 3);
  SceneSpec spec = gen.random_scene({160, 90}, 1);
  AmbientParams pitch_black = ambient_for(LightingCondition::Dark);
  pitch_black.noise_sigma = 0.0;
  spec.ambient_override = pitch_black;
  const img::RgbImage frame = render_scene(spec);
  EXPECT_LT(img::mean_intensity(img::rgb_to_gray(frame)), 25.0);
}

TEST(RenderScene, NoiseSeedChangesPixelsOnly) {
  SceneGenerator gen(LightingCondition::Day, 9);
  SceneSpec spec = gen.random_scene({120, 68}, 1);
  const img::RgbImage a = render_scene(spec);
  spec.noise_seed += 1;
  const img::RgbImage b = render_scene(spec);
  EXPECT_FALSE(a.r() == b.r());
  // But the underlying structure is the same: means stay close.
  EXPECT_NEAR(img::mean_intensity(a.r()), img::mean_intensity(b.r()), 1.0);
}

// ---- Sensor noise -----------------------------------------------------------

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Cells owned by each offset k, at index k + 255.
std::vector<int> cells_per_offset(const std::vector<std::int16_t>& table) {
  std::vector<int> cells(511, 0);
  for (const std::int16_t k : table) ++cells[static_cast<std::size_t>(k + 255)];
  return cells;
}

/// FNV-1a over the table entries.
std::uint64_t table_checksum(const std::vector<std::int16_t>& table) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::int16_t k : table)
    h = (h ^ static_cast<std::uint16_t>(k)) * 1099511628211ULL;
  return h;
}

img::RgbImage flat_frame(img::Size size, std::uint8_t r, std::uint8_t g,
                         std::uint8_t b) {
  img::RgbImage frame(size);
  std::fill(frame.r().pixels().begin(), frame.r().pixels().end(), r);
  std::fill(frame.g().pixels().begin(), frame.g().pixels().end(), g);
  std::fill(frame.b().pixels().begin(), frame.b().pixels().end(), b);
  return frame;
}

// 6.5 is no condition's sigma: it stands for an ambient_override between
// dusk and dark.
constexpr double kSigmas[] = {3.0, 5.0, 6.0, 7.0, 6.5};

TEST(SensorNoise, TableSharesWithinBoundOfRoundedGaussian) {
  for (const double sigma : kSigmas) {
    const std::vector<std::int16_t> table = sensor_noise_table(sigma);
    ASSERT_EQ(table.size(), std::size_t{1} << kSensorNoiseTableBits);
    const std::vector<int> cells = cells_per_offset(table);
    for (int k = -255; k <= 255; ++k) {
      // +-255 hold the whole tail beyond +-254.5.
      const double p = k == 255    ? 1.0 - normal_cdf(254.5 / sigma)
                       : k == -255 ? normal_cdf(-254.5 / sigma)
                                   : normal_cdf((k + 0.5) / sigma) -
                                         normal_cdf((k - 0.5) / sigma);
      const double share = cells[static_cast<std::size_t>(k + 255)] / 65536.0;
      EXPECT_NEAR(share, p, kSensorNoiseTableError)
          << "sigma " << sigma << " k " << k;
      EXPECT_EQ(cells[static_cast<std::size_t>(k + 255)],
                cells[static_cast<std::size_t>(255 - k)])
          << "sigma " << sigma << " k " << k;
    }
    EXPECT_TRUE(std::is_sorted(table.begin(), table.end()));
  }
}

TEST(SensorNoise, TableChecksumsArePinned) {
  // A toolchain that moves any table cell moves rendered pixels: fail here.
  EXPECT_EQ(table_checksum(sensor_noise_table(5.0)), 0x1030a433f4d32cffULL);
  EXPECT_EQ(table_checksum(sensor_noise_table(6.0)), 0xeae2f3e9f5deb4dfULL);
  EXPECT_EQ(table_checksum(sensor_noise_table(7.0)), 0x84fa634fc02f7837ULL);
}

TEST(SensorNoise, MillionDrawMomentsMatchRoundedGaussian) {
  for (const double sigma : {5.0, 6.5}) {
    // 3 planes x 1000 x 334 = 1,002,000 draws, none near the clamp.
    img::RgbImage frame = flat_frame({1000, 334}, 128, 128, 128);
    add_sensor_noise(frame, sigma, 2024);
    double sum = 0.0, sum2 = 0.0;
    std::size_t n = 0;
    for (const img::ImageU8* plane : {&frame.r(), &frame.g(), &frame.b()}) {
      for (const std::uint8_t v : plane->pixels()) {
        const double d = static_cast<double>(v) - 128.0;
        sum += d;
        sum2 += d * d;
        ++n;
      }
    }
    const double mean = sum / static_cast<double>(n);
    const double var = sum2 / static_cast<double>(n) - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.03) << "sigma " << sigma;
    // Rounding to integers adds the 1/12 of Sheppard's correction.
    EXPECT_NEAR(var, sigma * sigma + 1.0 / 12.0, 0.25) << "sigma " << sigma;
  }
}

TEST(SensorNoise, LanesLowFirstOneStreamAcrossPlanes) {
  // 2 samples per plane: word 0 feeds r0 r1 g0 g1, word 1 feeds b0 b1.
  const double sigma = 6.0;
  const std::uint64_t seed = 99;
  img::RgbImage frame = flat_frame({1, 2}, 100, 100, 100);
  add_sensor_noise(frame, sigma, seed);
  const std::vector<std::int16_t> table = sensor_noise_table(sigma);
  std::mt19937_64 engine(seed);
  const std::uint64_t w0 = engine(), w1 = engine();
  auto expect = [&](std::uint64_t word, int lane) {
    return 100 + table[(word >> (16 * lane)) & 0xffffu];
  };
  EXPECT_EQ(frame.r().at(0, 0), expect(w0, 0));
  EXPECT_EQ(frame.r().at(0, 1), expect(w0, 1));
  EXPECT_EQ(frame.g().at(0, 0), expect(w0, 2));
  EXPECT_EQ(frame.g().at(0, 1), expect(w0, 3));
  EXPECT_EQ(frame.b().at(0, 0), expect(w1, 0));
  EXPECT_EQ(frame.b().at(0, 1), expect(w1, 1));
}

TEST(SensorNoise, ClampsAtBlackAndWhite) {
  const double sigma = 7.0;
  img::RgbImage frame = flat_frame({200, 100}, 0, 255, 128);
  add_sensor_noise(frame, sigma, 5);
  const int reach = sensor_noise_table(sigma).back();  // largest offset
  const auto black = frame.r().pixels();
  const auto white = frame.g().pixels();
  // Clamped, not wrapped: black only brightens, white only darkens, and by
  // no more than the largest offset.
  EXPECT_LE(*std::max_element(black.begin(), black.end()), reach);
  EXPECT_GE(*std::min_element(white.begin(), white.end()), 255 - reach);
  // Every non-positive offset clamps to the bound: P(K <= 0) of the samples.
  const double at_bound = normal_cdf(0.5 / sigma);
  const double n = static_cast<double>(black.size());
  EXPECT_NEAR(std::count(black.begin(), black.end(), 0) / n, at_bound, 0.02);
  EXPECT_NEAR(std::count(white.begin(), white.end(), 255) / n, at_bound, 0.02);
}

TEST(SensorNoise, NonPositiveSigmaLeavesFrameUntouched) {
  for (const double sigma : {0.0, -3.0}) {
    img::RgbImage frame = flat_frame({16, 9}, 0, 255, 77);
    const img::RgbImage before = frame;
    add_sensor_noise(frame, sigma, 1);
    EXPECT_EQ(frame.r(), before.r());
    EXPECT_EQ(frame.g(), before.g());
    EXPECT_EQ(frame.b(), before.b());
  }
  for (const std::int16_t k : sensor_noise_table(0.0)) ASSERT_EQ(k, 0);
}

TEST(SensorNoise, RenderAppliesOverrideSigmaLast) {
  SceneGenerator gen(LightingCondition::Dusk, 12);
  SceneSpec spec = gen.random_scene({96, 54}, 1);
  AmbientParams amb = ambient_for(LightingCondition::Dusk);
  amb.noise_sigma = 0.0;
  spec.ambient_override = amb;
  img::RgbImage expected = render_scene(spec);
  add_sensor_noise(expected, 6.5, spec.noise_seed);
  amb.noise_sigma = 6.5;
  spec.ambient_override = amb;
  const img::RgbImage noisy = render_scene(spec);
  EXPECT_EQ(noisy.r(), expected.r());
  EXPECT_EQ(noisy.g(), expected.g());
  EXPECT_EQ(noisy.b(), expected.b());
}

TEST(SceneGenerator, VehiclesInsideFrameMostly) {
  SceneGenerator gen(LightingCondition::Day, 21);
  for (int i = 0; i < 20; ++i) {
    const SceneSpec spec = gen.random_scene({640, 360}, 3);
    EXPECT_EQ(spec.vehicles.size(), 3u);
    for (const VehicleSpec& v : spec.vehicles) {
      EXPECT_GE(v.body.x, 0);
      EXPECT_LE(v.body.right(), 640);
      EXPECT_GT(v.body.width, 0);
      // Vehicles sit on the road: bottom below the horizon.
      EXPECT_GT(v.body.bottom(), spec.horizon_y);
    }
  }
}

TEST(SceneGenerator, NearVehiclesLowerAndLarger) {
  // Statistically: bottom position correlates with width across draws.
  SceneGenerator gen(LightingCondition::Day, 33);
  double cov = 0.0, mw = 0.0, mb = 0.0;
  std::vector<std::pair<int, int>> samples;
  for (int i = 0; i < 60; ++i) {
    const VehicleSpec v = gen.random_vehicle({640, 360}, 140);
    samples.push_back({v.body.width, v.body.bottom()});
    mw += v.body.width;
    mb += v.body.bottom();
  }
  mw /= samples.size();
  mb /= samples.size();
  for (auto [w, b] : samples) cov += (w - mw) * (b - mb);
  EXPECT_GT(cov, 0.0);
}

TEST(SceneGenerator, DistractorsOnlyWhenLightsOn) {
  SceneGenerator day(LightingCondition::Day, 5);
  EXPECT_TRUE(day.random_scene({320, 180}, 1).distractors.empty());
  SceneGenerator dark(LightingCondition::Dark, 5);
  bool any = false;
  for (int i = 0; i < 10; ++i)
    any |= !dark.random_scene({320, 180}, 1).distractors.empty();
  EXPECT_TRUE(any);
}

TEST(SceneGenerator, PedestriansPlacedOnRoad) {
  SceneGenerator gen(LightingCondition::Day, 17);
  const SceneSpec spec = gen.random_scene({320, 180}, 0, 3);
  EXPECT_EQ(spec.pedestrians.size(), 3u);
  for (const PedestrianSpec& p : spec.pedestrians)
    EXPECT_GT(p.body.bottom(), spec.horizon_y);
}

TEST(SceneGenerator, SeedReproducibility) {
  SceneGenerator a(LightingCondition::Dusk, 99), b(LightingCondition::Dusk, 99);
  const SceneSpec sa = a.random_scene({320, 180}, 2);
  const SceneSpec sb = b.random_scene({320, 180}, 2);
  ASSERT_EQ(sa.vehicles.size(), sb.vehicles.size());
  for (std::size_t i = 0; i < sa.vehicles.size(); ++i)
    EXPECT_EQ(sa.vehicles[i].body, sb.vehicles[i].body);
}


TEST(Scenario, EmptyRoadHasNoTargets) {
  const SceneSpec s = make_scenario(ScenarioPreset::EmptyRoad,
                                    LightingCondition::Day, {320, 180}, 1);
  EXPECT_TRUE(s.vehicles.empty());
  EXPECT_TRUE(s.pedestrians.empty());
  EXPECT_TRUE(s.animals.empty());
}

TEST(Scenario, DenseTrafficIsDense) {
  const SceneSpec s = make_scenario(ScenarioPreset::DenseTraffic,
                                    LightingCondition::Dusk, {320, 180}, 2);
  EXPECT_GE(s.vehicles.size(), 4u);
  EXPECT_GE(s.pedestrians.size(), 1u);
}

TEST(Scenario, CountrysideHasAnimalsNoBuildings) {
  const SceneSpec s = make_scenario(ScenarioPreset::CountrysideRoad,
                                    LightingCondition::Day, {320, 180}, 3);
  EXPECT_GE(s.animals.size(), 1u);
  EXPECT_TRUE(s.clutter.empty());
  for (const AnimalSpec& a : s.animals) {
    EXPECT_GT(a.body.width, 0);
    EXPECT_GT(a.body.bottom(), s.horizon_y);
  }
}

TEST(Scenario, PresetsRenderable) {
  for (auto preset :
       {ScenarioPreset::EmptyRoad, ScenarioPreset::LightTraffic,
        ScenarioPreset::DenseTraffic, ScenarioPreset::CountrysideRoad}) {
    const SceneSpec s =
        make_scenario(preset, LightingCondition::Dark, {160, 90}, 4);
    EXPECT_NO_THROW((void)render_scene(s));
  }
}

}  // namespace
}  // namespace avd::data
