// Seeded random number generation.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng so datasets, training runs and benchmarks are bit-reproducible (see
// DESIGN.md §6). The engine is std::mt19937_64, whose output the C++
// standard fixes; every draw on top of it is written out here instead of
// taken from std::*_distribution, whose algorithms each standard library
// picks for itself. The draws follow the published algorithms in the draw
// order libstdc++ 12 uses, so the sequences match what that library gave.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>

namespace avd::ml {

/// Seeded draws over std::mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

  /// Uniform double in [lo, hi): lo + (hi - lo) * canonical().
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return canonical() * (hi - lo) + lo;
  }
  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] int uniform_int(int lo, int hi) {
    const std::uint64_t span = static_cast<std::uint64_t>(hi) -
                               static_cast<std::uint64_t>(lo) + 1;
    return static_cast<int>(below(span) + static_cast<std::uint64_t>(lo));
  }
  /// Gaussian with the given mean/stddev: Marsaglia's polar method, one
  /// pair per call, the pair's second value discarded.
  [[nodiscard]] double gaussian(double mean = 0.0, double stddev = 1.0) {
    double x = 0.0, y = 0.0, r2 = 0.0;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return y * std::sqrt(-2.0 * std::log(r2) / r2) * stddev + mean;
  }
  /// Bernoulli draw with success probability p.
  [[nodiscard]] bool bernoulli(double p) { return canonical() < p; }
  /// Derive an independent child stream (stable function of parent state).
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

  /// Fisher-Yates shuffle. While n^2 fits one 64-bit draw, each draw picks
  /// the swap partners of two consecutive positions i and i+1 as one index
  /// in [0, (i+1)(i+2)) (after one single step when n is even).
  template <typename Container>
  void shuffle(Container& c) {
    const auto first = std::begin(c);
    const auto n = static_cast<std::uint64_t>(std::size(c));
    if (n == 0) return;
    std::uint64_t i = 1;
    if (UINT64_MAX / n < n) {
      for (; i < n; ++i) std::iter_swap(first + i, first + below(i + 1));
      return;
    }
    if (n % 2 == 0) std::iter_swap(first + i++, first + below(2));
    for (; i < n; i += 2) {
      const std::uint64_t b0 = i + 1, b1 = i + 2;
      const std::uint64_t x = below(b0 * b1);
      std::iter_swap(first + i, first + x / b1);
      std::iter_swap(first + i + 1, first + x % b1);
    }
  }

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  /// Double in [0, 1) from one 64-bit word: the word rounded to double and
  /// scaled by 2^-64, with the few words that round up to 2^64 mapped to the
  /// largest double below 1.
  double canonical() {
    const double u = static_cast<double>(engine_()) * 0x1p-64;
    return u < 1.0 ? u : 1.0 - 0x1p-53;
  }

  /// Uniform integer in [0, range), range >= 1: Lemire's nearly-divisionless
  /// method. The high word of word * range is the draw; a low word under
  /// 2^64 mod range marks the biased few and is redrawn.
  std::uint64_t below(std::uint64_t range) {
    std::uint64_t hi = 0, lo = 0;
    mul_wide(engine_(), range, hi, lo);
    if (lo < range) {
      const std::uint64_t threshold = (0 - range) % range;
      while (lo < threshold) mul_wide(engine_(), range, hi, lo);
    }
    return hi;
  }

  /// The 128-bit product a * b as its high and low 64-bit words.
  static void mul_wide(std::uint64_t a, std::uint64_t b, std::uint64_t& hi,
                       std::uint64_t& lo) {
    const std::uint64_t a0 = a & 0xffffffffu, a1 = a >> 32;
    const std::uint64_t b0 = b & 0xffffffffu, b1 = b >> 32;
    const std::uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    const std::uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) +
                              (p10 & 0xffffffffu);
    lo = (mid << 32) | (p00 & 0xffffffffu);
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
  }

  std::mt19937_64 engine_;
};

}  // namespace avd::ml
