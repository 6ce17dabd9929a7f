#include "avd/ml/weight_slices.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "avd/ml/svm.hpp"

namespace avd::ml {
namespace {

LinearSvm make_svm(std::size_t dim, float bias = 0.25f) {
  std::vector<float> w(dim);
  for (std::size_t i = 0; i < dim; ++i)
    w[i] = static_cast<float>(i % 17) * 0.1f - 0.5f;
  return LinearSvm(std::move(w), bias);
}

TEST(WeightSlices, SlicesPartitionTheWeights) {
  const LinearSvm svm = make_svm(36 * 4);
  const WeightSlices slices(svm, 36);
  EXPECT_EQ(slices.block_count(), 4u);
  EXPECT_EQ(slices.block_length(), 36u);
  EXPECT_EQ(slices.bias(), svm.bias());
  for (std::size_t b = 0; b < slices.block_count(); ++b) {
    const auto s = slices.slice(b);
    ASSERT_EQ(s.size(), 36u);
    for (std::size_t i = 0; i < s.size(); ++i)
      EXPECT_EQ(s[i], svm.weights()[b * 36 + i]);
  }
}

TEST(WeightSlices, StreamedAccumulationIsBitExactDecision) {
  // The scanner's correctness hinges on this: summing per-block products
  // left-to-right into ONE double accumulator performs the exact FP op
  // sequence of LinearSvm::decision, so the scores are bit-equal, not just
  // close.
  const LinearSvm svm = make_svm(36 * 49, -1.75f);
  const WeightSlices slices(svm, 36);
  std::vector<float> x(svm.dimension());
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>((i * 7919) % 1000) / 999.0f;

  double acc = 0.0;
  for (std::size_t b = 0; b < slices.block_count(); ++b)
    slices.accumulate(b, std::span<const float>(x).subspan(b * 36, 36), acc);
  const double streamed = acc + slices.bias();

  EXPECT_EQ(streamed, svm.decision(x));
}

/// Eight windows' descriptors and their lane-major double copy: lane j,
/// element i at flat[i * elem_stride + j], as the block grid stores them.
struct LaneMajorWindows {
  std::vector<std::vector<float>> windows;
  std::vector<double> flat;

  LaneMajorWindows(std::size_t dim, std::size_t stride, std::size_t seed)
      : windows(WeightSlices::kLanes), flat(dim * stride, -1.0) {
    for (std::size_t j = 0; j < windows.size(); ++j) {
      windows[j].resize(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        windows[j][i] =
            static_cast<float>((i * 7919 + j * 31 + seed) % 1000) / 999.0f;
        flat[i * stride + j] = windows[j][i];  // exact float -> double
      }
    }
  }
};

/// Scores eight windows stored lane-major with element rows `stride`
/// apart and checks every lane against LinearSvm::decision, bit for bit.
void expect_lanes_bit_exact(std::size_t stride, float bias) {
  const LinearSvm svm = make_svm(36 * 49, bias);
  const WeightSlices slices(svm, 36);
  const LaneMajorWindows data(svm.dimension(), stride, stride);
  double acc[WeightSlices::kLanes] = {};
  for (std::size_t b = 0; b < slices.block_count(); ++b)
    slices.accumulate_lanes(b, data.flat.data() + b * 36 * stride, stride,
                            acc);
  for (int j = 0; j < WeightSlices::kLanes; ++j)
    EXPECT_EQ(acc[j] + slices.bias(), svm.decision(data.windows[j]))
        << "stride " << stride << " lane " << j;
}

TEST(WeightSlices, LaneAccumulationBitExactPerLane) {
  // accumulate_lanes scores eight windows at once so their accumulator
  // chains overlap, and it reads exact double conversions of the float
  // operands in place from lane-major rows; each lane must still produce
  // the scalar path's result — lane j's streamed score equals decision(x_j)
  // bit for bit.
  expect_lanes_bit_exact(WeightSlices::kLanes, 0.5f);
}

TEST(WeightSlices, StridedLaneAccumulationBitExactPerLane) {
  // Element rows wider than the eight lanes, as in a block grid whose
  // anchor rows hold more than eight anchors: same bits, and the columns
  // past the lanes stay unread.
  expect_lanes_bit_exact(21, -0.125f);
}

TEST(WeightSlices, ColumnAccumulationBitExactPerLane) {
  // The one-lane form the scan uses for rows narrower than eight window
  // positions: each column of lane-major data scores its own window exactly.
  const LinearSvm svm = make_svm(36 * 49, -0.125f);
  const WeightSlices slices(svm, 36);
  const std::size_t stride = 13;
  const LaneMajorWindows data(svm.dimension(), stride, 5);
  for (int j = 0; j < WeightSlices::kLanes; ++j) {
    double acc = 0.0;
    for (std::size_t b = 0; b < slices.block_count(); ++b)
      slices.accumulate_column(b, data.flat.data() + b * 36 * stride + j,
                               stride, acc);
    EXPECT_EQ(acc + slices.bias(), svm.decision(data.windows[j]))
        << "lane " << j;
  }
}

TEST(WeightSlices, LaneFormsKeepSignedZeros) {
  // -0.0 weights must multiply as -0.0: a lane accumulator that starts at
  // -0.0 and only ever adds -0.0 products stays -0.0, as accumulate()'s
  // does. A broadcast formed as w + 0.0 would make it +0.0.
  const LinearSvm svm(std::vector<float>(36, -0.0f), 0.0f);
  const WeightSlices slices(svm, 36);
  const LaneMajorWindows data(36, 8, 3);
  double lanes[WeightSlices::kLanes];
  std::fill(std::begin(lanes), std::end(lanes), -0.0);
  slices.accumulate_lanes(0, data.flat.data(), 8, lanes);
  for (int j = 0; j < WeightSlices::kLanes; ++j) {
    double scalar = -0.0;
    slices.accumulate(0, data.windows[j], scalar);
    double column = -0.0;
    slices.accumulate_column(0, data.flat.data() + j, 8, column);
    EXPECT_TRUE(std::signbit(scalar)) << "lane " << j;
    EXPECT_EQ(std::signbit(lanes[j]), std::signbit(scalar)) << "lane " << j;
    EXPECT_EQ(std::signbit(column), std::signbit(scalar)) << "lane " << j;
  }
}

TEST(WeightSlices, RejectsUntrainedSvm) {
  EXPECT_THROW(WeightSlices(LinearSvm(), 36), std::invalid_argument);
}

TEST(WeightSlices, RejectsNonDividingBlockLength) {
  const LinearSvm svm = make_svm(100);
  EXPECT_THROW(WeightSlices(svm, 36), std::invalid_argument);
  EXPECT_THROW(WeightSlices(svm, 0), std::invalid_argument);
}

TEST(WeightSlices, RejectsWrongValueLength) {
  const LinearSvm svm = make_svm(72);
  const WeightSlices slices(svm, 36);
  const std::vector<float> wrong(35, 1.0f);
  double acc = 0.0;
  EXPECT_THROW(slices.accumulate(0, wrong, acc), std::invalid_argument);
}

}  // namespace
}  // namespace avd::ml
