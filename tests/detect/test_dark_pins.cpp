// Output pins of the dark front end and the dark detector.
//
// Each literal was captured from the three-kernel front end the fused pass
// replaced (rgb_to_ycbcr, taillight_roi_mask, then downsample_or or the
// nearest-resize fallback, then a byte-wise closing). The fused mask and the
// packed closing promise the same bytes, so a pin that moves means the front
// end changed its output, not that the literal needs refreshing.
#include <gtest/gtest.h>

#include <cstdint>

#include "../support/pinned_frames.hpp"
#include "avd/detect/dark_detector.hpp"
#include "avd/detect/dark_training.hpp"

namespace avd::det {
namespace {

using test_support::checksum;
using test_support::detection_hash;

class DarkPins : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DarkTrainingSpec spec;
    spec.windows.per_class = 120;
    spec.dbn.pretrain.epochs = 12;
    spec.dbn.finetune_epochs = 30;
    spec.pairing_scenes = 60;
    detector_ = new DarkVehicleDetector(train_dark_detector(spec));
  }
  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
  }
  static const DarkVehicleDetector& detector() { return *detector_; }

  static DarkVehicleDetector with_median() {
    DarkDetectorConfig cfg = detector().config();
    cfg.median_prefilter = true;
    return {detector().dbn(), detector().pairing_svm(), cfg};
  }

 private:
  static DarkVehicleDetector* detector_;
};

DarkVehicleDetector* DarkPins::detector_ = nullptr;

TEST_F(DarkPins, FullHdFrameOrPooled) {
  // 1920x1080 divides by 3: the OR-pooled path.
  const img::RgbImage frame = test_support::pinned_dark_frame_1080();
  const img::ImageU8 mask = detector().preprocess(frame);
  ASSERT_EQ(mask.size(), (img::Size{640, 360}));
  EXPECT_EQ(checksum(mask), 0x39d6fce97cbc7258ULL) << "preprocess";
  EXPECT_EQ(checksum(with_median().preprocess(frame)), 0x8db055c2535cdf85ULL)
      << "preprocess with median";
  const std::vector<Detection> dets = detector().detect(frame);
  EXPECT_FALSE(dets.empty());
  EXPECT_EQ(detection_hash(dets), 0x489d0ebe80b907f8ULL) << "detect";
}

TEST_F(DarkPins, NonDivisibleFrameNearestFallback) {
  // 640x360 does not divide by 3: the nearest-resize fallback, 213x120.
  const img::RgbImage frame = test_support::pinned_dark_frame();
  const img::ImageU8 mask = detector().preprocess(frame);
  ASSERT_EQ(mask.size(), (img::Size{213, 120}));
  EXPECT_EQ(checksum(mask), 0x41b48d27d2d624e8ULL) << "preprocess";
  EXPECT_EQ(checksum(with_median().preprocess(frame)), 0x7e20966514a22d2fULL)
      << "preprocess with median";
  const std::vector<Detection> dets = detector().detect(frame);
  EXPECT_FALSE(dets.empty());
  EXPECT_EQ(detection_hash(dets), 0xd820507734d1362eULL) << "detect";
}

}  // namespace
}  // namespace avd::det
