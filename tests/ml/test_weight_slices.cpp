#include "avd/ml/weight_slices.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "../../src/ml/src/lane_kernels.hpp"
#include "avd/cpu.hpp"
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

/// An element-row stride wider than kLanes and no multiple of it: the rows
/// of a block grid that holds more anchors than one call scores.
constexpr std::size_t kWideStride = WeightSlices::kLanes + 5;

/// kLanes windows' descriptors and their lane-major double copy: lane j,
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

/// One lane form under test: adds block `block`'s dot products into
/// acc[0..lanes), either through WeightSlices or by calling a lane body
/// directly on the block's weights.
using ScoreLanes =
    std::function<void(const WeightSlices& slices, std::size_t block,
                       const double* base, std::size_t stride, double* acc)>;

/// WeightSlices::accumulate_lanes at `lanes` lanes: the body this host
/// picked.
ScoreLanes dispatched(int lanes) {
  return [lanes](const WeightSlices& slices, std::size_t block,
                 const double* base, std::size_t stride, double* acc) {
    slices.accumulate_lanes(lanes, block, base, stride, acc);
  };
}
const ScoreLanes kDispatchedLanes = dispatched(WeightSlices::kLanes);
const ScoreLanes kDispatchedHalfLanes = dispatched(WeightSlices::kLanes / 2);
const ScoreLanes kDispatchedQuarterLanes = dispatched(WeightSlices::kLanes / 4);

using LaneFn = void (*)(const double*, std::size_t, const double*,
                        std::size_t, double*);

ScoreLanes body_form(LaneFn body) {
  return [body](const WeightSlices& slices, std::size_t block,
                const double* base, std::size_t stride, double* acc) {
    const std::span<const float> w = slices.slice(block);
    const std::vector<double> wd(w.begin(), w.end());  // exact float->double
    body(wd.data(), wd.size(), base, stride, acc);
  };
}

/// Scores `lanes` windows stored lane-major with element rows `stride`
/// apart and checks every lane against LinearSvm::decision, bit for bit.
void expect_lanes_bit_exact(const ScoreLanes& score, int lanes,
                            std::size_t stride, float bias) {
  const LinearSvm svm = make_svm(36 * 49, bias);
  const WeightSlices slices(svm, 36);
  const LaneMajorWindows data(svm.dimension(), stride, stride);
  double acc[WeightSlices::kLanes] = {};
  for (std::size_t b = 0; b < slices.block_count(); ++b)
    score(slices, b, data.flat.data() + b * 36 * stride, stride, acc);
  for (int j = 0; j < lanes; ++j)
    EXPECT_EQ(acc[j] + slices.bias(), svm.decision(data.windows[j]))
        << "stride " << stride << " lane " << j;
  for (int j = lanes; j < WeightSlices::kLanes; ++j)
    EXPECT_EQ(acc[j], 0.0) << "lane " << j << " is past the form's lanes";
}

/// -0.0 weights must multiply as -0.0: a lane accumulator that starts at
/// -0.0 and only ever adds -0.0 products stays -0.0, as accumulate()'s
/// does. A broadcast formed as w + 0.0 would make it +0.0.
void expect_signed_zeros_kept(const ScoreLanes& score, int lanes) {
  const LinearSvm svm(std::vector<float>(36, -0.0f), 0.0f);
  const WeightSlices slices(svm, 36);
  const std::size_t stride = WeightSlices::kLanes;
  const LaneMajorWindows data(36, stride, 3);
  double acc[WeightSlices::kLanes];
  std::fill(std::begin(acc), std::end(acc), -0.0);
  score(slices, 0, data.flat.data(), stride, acc);
  for (int j = 0; j < lanes; ++j) {
    double scalar = -0.0;
    slices.accumulate(0, data.windows[j], scalar);
    EXPECT_TRUE(std::signbit(scalar)) << "lane " << j;
    EXPECT_EQ(std::signbit(acc[j]), std::signbit(scalar)) << "lane " << j;
  }
}

TEST(WeightSlices, LaneAccumulationBitExactPerLane) {
  // accumulate_lanes scores up to 32 windows at once so their accumulator
  // chains overlap, and it reads exact double conversions of the float
  // operands in place from lane-major rows; each lane must still produce
  // the scalar path's result — lane j's streamed score equals decision(x_j)
  // bit for bit. Same at sixteen and eight lanes.
  expect_lanes_bit_exact(kDispatchedLanes, WeightSlices::kLanes,
                         WeightSlices::kLanes, 0.5f);
  expect_lanes_bit_exact(kDispatchedHalfLanes, WeightSlices::kLanes / 2,
                         WeightSlices::kLanes, 0.5f);
  expect_lanes_bit_exact(kDispatchedQuarterLanes, WeightSlices::kLanes / 4,
                         WeightSlices::kLanes, 0.5f);
}

TEST(WeightSlices, StridedLaneAccumulationBitExactPerLane) {
  // Element rows wider than the lanes, as in a block grid whose anchor rows
  // hold more anchors than one call scores: same bits, and the columns
  // past the lanes stay unread.
  expect_lanes_bit_exact(kDispatchedLanes, WeightSlices::kLanes, kWideStride,
                         -0.125f);
  expect_lanes_bit_exact(kDispatchedHalfLanes, WeightSlices::kLanes / 2,
                         kWideStride, -0.125f);
  expect_lanes_bit_exact(kDispatchedQuarterLanes, WeightSlices::kLanes / 4,
                         kWideStride, -0.125f);
}

TEST(WeightSlices, ColumnAccumulationBitExactPerLane) {
  // The one-lane form the scan uses for rows narrower than eight window
  // positions: each column of lane-major data scores its own window exactly.
  const LinearSvm svm = make_svm(36 * 49, -0.125f);
  const WeightSlices slices(svm, 36);
  const std::size_t stride = kWideStride;
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
  expect_signed_zeros_kept(kDispatchedLanes, WeightSlices::kLanes);
  expect_signed_zeros_kept(kDispatchedHalfLanes, WeightSlices::kLanes / 2);
  expect_signed_zeros_kept(kDispatchedQuarterLanes, WeightSlices::kLanes / 4);
  const ScoreLanes column = [](const WeightSlices& slices, std::size_t block,
                               const double* base, std::size_t stride,
                               double* acc) {
    for (int j = 0; j < WeightSlices::kLanes; ++j)
      slices.accumulate_column(block, base + j, stride, acc[j]);
  };
  expect_signed_zeros_kept(column, WeightSlices::kLanes);
}

/// Each ISA body of the lane kernel, run directly whatever this host's
/// WeightSlices picked, so both are checked in one binary.
struct LaneBody {
  const char* name;
  int lanes;
  bool needs_avx2;
  bool needs_avx512;
  LaneFn fn;
};

// Prints the case by name: gtest's default dumps the struct's bytes, whose
// pointers move with address-space randomisation, so the discovered test
// names would change from one build to the next.
void PrintTo(const LaneBody& body, std::ostream* os) { *os << body.name; }

class LaneBodies : public ::testing::TestWithParam<LaneBody> {
 protected:
  void SetUp() override {
    if (GetParam().needs_avx2 && !cpu_has_avx2())
      GTEST_SKIP() << "this CPU has no AVX2, so its lane body cannot run";
    if (GetParam().needs_avx512 && !cpu_has_avx512())
      GTEST_SKIP() << "this CPU has no AVX-512, so its lane body cannot run";
  }
};

TEST_P(LaneBodies, BitExactPerLane) {
  expect_lanes_bit_exact(body_form(GetParam().fn), GetParam().lanes,
                         WeightSlices::kLanes, 0.5f);
}

TEST_P(LaneBodies, StridedBitExactPerLane) {
  expect_lanes_bit_exact(body_form(GetParam().fn), GetParam().lanes,
                         kWideStride, -0.125f);
}

TEST_P(LaneBodies, KeepSignedZeros) {
  expect_signed_zeros_kept(body_form(GetParam().fn), GetParam().lanes);
}

INSTANTIATE_TEST_SUITE_P(
    EveryIsa, LaneBodies,
    ::testing::Values(
        LaneBody{"Sse2x32", 32, false, false, detail::lanes_sse2<32>},
        LaneBody{"Sse2x16", 16, false, false, detail::lanes_sse2<16>},
        LaneBody{"Sse2x8", 8, false, false, detail::lanes_sse2<8>},
        LaneBody{"Avx2x32", 32, true, false, detail::lanes_avx2<32>},
        LaneBody{"Avx2x16", 16, true, false, detail::lanes_avx2<16>},
        LaneBody{"Avx2x8", 8, true, false, detail::lanes_avx2<8>},
        LaneBody{"Avx512x32", 32, false, true, detail::lanes_avx512<32>},
        LaneBody{"Avx512x16", 16, false, true, detail::lanes_avx512<16>},
        LaneBody{"Avx512x8", 8, false, true, detail::lanes_avx512<8>}),
    [](const ::testing::TestParamInfo<LaneBody>& info) {
      return std::string(info.param.name);
    });

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
