// The SVM lane kernels behind ml::WeightSlices::accumulate_lanes, one body
// per ISA and lane count (private to src/ml; tests/ml/test_weight_slices.cpp
// runs each body directly, so all are checked in one binary whatever the
// host picks).
//
// Every body computes, for each lane j < Lanes,
//
//   acc[j] += w[0] * base[j] + w[1] * base[elem_stride + j] + ...
//
// left to right, each step a double multiply then a double add — the exact
// operation sequence of accumulate() and LinearSvm::decision for that lane.
// The bodies differ only in how many lanes one register holds. None may
// contract a step into a fused multiply-add (that skips the product's
// rounding): the AVX2 clone's target leaves FMA out, AVX-512F has FMA of
// its own, so weight_slices.cpp builds with -ffp-contract=off, and
// scripts/check_no_fma.sh fails if an AVX2 or AVX-512 body's disassembly
// holds any vfmadd/vfmsub/vfnmadd.
#pragma once

#include <cstddef>

namespace avd::ml::detail {

/// The x86-64 baseline: Lanes / 2 SSE2 registers of two lanes each (at 32
/// lanes, sixteen lanes twice). Instantiated for Lanes = 8, 16 and 32.
template <int Lanes>
void lanes_sse2(const double* w, std::size_t len, const double* base,
                std::size_t elem_stride, double* acc);

/// The same loop over Lanes / 4 AVX registers of four lanes each. Compiled
/// for AVX2 whatever the build flags, so it may run only where
/// avd::cpu_has_avx2() holds. Instantiated for Lanes = 8, 16 and 32.
template <int Lanes>
__attribute__((target("avx2"))) void lanes_avx2(const double* w,
                                                std::size_t len,
                                                const double* base,
                                                std::size_t elem_stride,
                                                double* acc);

/// The same loop over Lanes / 8 AVX-512 registers of eight lanes each: at
/// 32 lanes, four independent accumulator chains. Compiled for AVX-512F
/// whatever the build flags, so it may run only where
/// avd::cpu_has_avx512() holds. Instantiated for Lanes = 8, 16 and 32.
template <int Lanes>
__attribute__((target("avx512f"))) void lanes_avx512(const double* w,
                                                     std::size_t len,
                                                     const double* base,
                                                     std::size_t elem_stride,
                                                     double* acc);

}  // namespace avd::ml::detail
