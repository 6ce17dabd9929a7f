#include "avd/datasets/patches.hpp"

#include <gtest/gtest.h>

#include "avd/image/stats.hpp"

namespace avd::data {
namespace {

TEST(PatchDataset, CountsAndSizes) {
  VehiclePatchSpec spec;
  spec.n_positive = 12;
  spec.n_negative = 8;
  const PatchDataset ds = make_vehicle_patches(spec);
  EXPECT_EQ(ds.size(), 20u);
  EXPECT_EQ(ds.positives(), 12u);
  EXPECT_EQ(ds.negatives(), 8u);
  for (const LabeledPatch& p : ds.patches)
    EXPECT_EQ(p.gray.size(), spec.patch_size);
}

TEST(PatchDataset, Deterministic) {
  VehiclePatchSpec spec;
  spec.n_positive = 5;
  spec.n_negative = 5;
  const PatchDataset a = make_vehicle_patches(spec);
  const PatchDataset b = make_vehicle_patches(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.patches[i].gray, b.patches[i].gray);
    EXPECT_EQ(a.patches[i].label, b.patches[i].label);
  }
}

TEST(PatchDataset, SeedChangesContent) {
  VehiclePatchSpec a, b;
  a.n_positive = b.n_positive = 3;
  a.n_negative = b.n_negative = 0;
  b.seed = a.seed + 1;
  EXPECT_FALSE(make_vehicle_patches(a).patches[0].gray ==
               make_vehicle_patches(b).patches[0].gray);
}

TEST(PatchDataset, DarkFractionMarksPatches) {
  VehiclePatchSpec spec;
  spec.condition = LightingCondition::Dusk;
  spec.n_positive = 40;
  spec.n_negative = 10;
  spec.dark_fraction = 0.25;
  const PatchDataset ds = make_vehicle_patches(spec);
  std::size_t dark = 0;
  for (const LabeledPatch& p : ds.patches) {
    dark += p.very_dark;
    if (p.very_dark) {
      EXPECT_GT(p.label, 0);  // only positives marked
    }
  }
  EXPECT_EQ(dark, 10u);
}

TEST(PatchDataset, WithoutVeryDarkRemovesOnlyDark) {
  VehiclePatchSpec spec;
  spec.condition = LightingCondition::Dusk;
  spec.n_positive = 20;
  spec.n_negative = 15;
  spec.dark_fraction = 0.5;
  const PatchDataset ds = make_vehicle_patches(spec);
  const PatchDataset subset = ds.without_very_dark();
  EXPECT_EQ(subset.size(), 25u);
  EXPECT_EQ(subset.positives(), 10u);
  EXPECT_EQ(subset.negatives(), 15u);
  for (const LabeledPatch& p : subset.patches) EXPECT_FALSE(p.very_dark);
}

TEST(PatchDataset, VeryDarkPatchesAreActuallyDark) {
  VehiclePatchSpec spec;
  spec.condition = LightingCondition::Dusk;
  spec.n_positive = 30;
  spec.n_negative = 0;
  spec.dark_fraction = 0.3;
  const PatchDataset ds = make_vehicle_patches(spec);
  double dark_mean = 0.0, dusk_mean = 0.0;
  int nd = 0, nn = 0;
  for (const LabeledPatch& p : ds.patches) {
    if (p.very_dark) {
      dark_mean += img::mean_intensity(p.gray);
      ++nd;
    } else {
      dusk_mean += img::mean_intensity(p.gray);
      ++nn;
    }
  }
  ASSERT_GT(nd, 0);
  ASSERT_GT(nn, 0);
  EXPECT_LT(dark_mean / nd, dusk_mean / nn);
}

TEST(PatchDataset, ConcatPreservesOrder) {
  VehiclePatchSpec a, b;
  a.n_positive = 3;
  a.n_negative = 2;
  b.n_positive = 1;
  b.n_negative = 4;
  b.seed = 999;
  const PatchDataset ds =
      PatchDataset::concat(make_vehicle_patches(a), make_vehicle_patches(b));
  EXPECT_EQ(ds.size(), 10u);
  EXPECT_EQ(ds.positives(), 4u);
}

TEST(PatchDataset, DayPositivesBrighterThanDuskPositives) {
  VehiclePatchSpec day, dusk;
  day.n_positive = dusk.n_positive = 10;
  day.n_negative = dusk.n_negative = 0;
  dusk.condition = LightingCondition::Dusk;
  double dm = 0, km = 0;
  for (const auto& p : make_vehicle_patches(day).patches)
    dm += img::mean_intensity(p.gray);
  for (const auto& p : make_vehicle_patches(dusk).patches)
    km += img::mean_intensity(p.gray);
  EXPECT_GT(dm, km);
}

TEST(PedestrianPatches, CountsAndWindow) {
  PedestrianPatchSpec spec;
  spec.n_positive = 6;
  spec.n_negative = 4;
  const PatchDataset ds = make_pedestrian_patches(spec);
  EXPECT_EQ(ds.size(), 10u);
  EXPECT_EQ(ds.positives(), 6u);
  for (const LabeledPatch& p : ds.patches)
    EXPECT_EQ(p.gray.size(), (img::Size{32, 64}));
}

TEST(RenderPatches, SingleCallsProduceRequestedSize) {
  ml::Rng rng(4);
  EXPECT_EQ(render_vehicle_patch(LightingCondition::Day, {48, 48}, rng).size(),
            (img::Size{48, 48}));
  EXPECT_EQ(render_negative_patch(LightingCondition::Dark, {64, 32}, rng).size(),
            (img::Size{64, 32}));
}

// Domain-shift property: a detector's raw pixels differ enough across
// conditions that per-condition means separate cleanly.
class PatchBrightnessSweep
    : public ::testing::TestWithParam<LightingCondition> {};

TEST_P(PatchBrightnessSweep, MeansWithinExpectedBand) {
  VehiclePatchSpec spec;
  spec.condition = GetParam();
  spec.n_positive = 8;
  spec.n_negative = 8;
  const PatchDataset ds = make_vehicle_patches(spec);
  double mean = 0.0;
  for (const auto& p : ds.patches) mean += img::mean_intensity(p.gray);
  mean /= static_cast<double>(ds.size());
  switch (GetParam()) {
    case LightingCondition::Day:
      EXPECT_GT(mean, 60.0);
      break;
    case LightingCondition::Dusk:
      EXPECT_GT(mean, 10.0);
      EXPECT_LT(mean, 70.0);
      break;
    case LightingCondition::Dark:
      EXPECT_LT(mean, 25.0);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Conditions, PatchBrightnessSweep,
                         ::testing::Values(LightingCondition::Day,
                                           LightingCondition::Dusk,
                                           LightingCondition::Dark));

}  // namespace
}  // namespace avd::data
