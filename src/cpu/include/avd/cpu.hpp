// The one CPU feature probe. The SVM lanes (src/ml) and the grey, YCbCr and
// resize kernels (src/image) each compile an SSE2 body and an AVX2 body, and
// the cell-grid votes and block normaliser (src/hog) a baseline body and an
// AVX-512F body; each calls this, once, to pick one. Header-only, so no
// library depends on another for it; an inline function's local static is
// one object however many files include it.
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

/// Whether this CPU (and OS) can run AVX-512F code: the one AVX-512 feature
/// the HOG kernels use. Asked once, then cached.
[[nodiscard]] inline bool cpu_has_avx512() {
  static const bool avx512 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return avx512;
}

}  // namespace avd
