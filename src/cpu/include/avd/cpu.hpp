// The one CPU feature probe. The grey and YCbCr planes (src/image) compile
// an SSE2 body and an AVX2 body; the SVM lanes (src/ml) and the fused
// taillight mask (src/image) an SSE2, an AVX2 and an AVX-512 body; the
// resize's horizontal lerp (src/image) an SSE2, an AVX2 gather and an
// AVX-512F permute body; and the cell-grid rows (pass 1 and the votes) and
// the block normaliser (src/hog) a baseline body and an AVX-512F body. Each
// calls this, once, to pick one. Header-only, so no library depends on
// another for it; an inline function's local static is one object however
// many files include it.
#pragma once

namespace avd {

/// Whether this CPU (and OS) can run AVX2 code. Asked once, then cached.
[[nodiscard]] inline bool cpu_has_avx2() {
  // A function-local static: initialised once, thread-safely, on first use,
  // after __builtin_cpu_init has filled the CPU model even if that first use
  // runs during static initialisation.
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
}

/// Whether this CPU (and OS) can run AVX-512F and AVX-512BW code: the two
/// AVX-512 features the kernels use (BW for the taillight mask's byte
/// compares and ORs; the SVM lanes and the HOG bodies need F only). Asked
/// once, then cached.
[[nodiscard]] inline bool cpu_has_avx512() {
  static const bool avx512 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512bw") != 0;
  }();
  return avx512;
}

}  // namespace avd
