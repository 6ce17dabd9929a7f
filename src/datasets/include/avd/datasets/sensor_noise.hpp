// Synthetic camera noise for rendered frames.
//
// Each channel sample v becomes clamp(v + k, 0, 255), where the offset k is
// distributed as lround(sigma * Z) for a standard normal Z. Only that
// integer offset is ever stored, so the sampler draws k directly from a
// 2^16-cell inverse-CDF table of the discrete distribution, indexed by 16
// random bits. The table is built from IEEE basic operations only, so the
// table, and every noisy pixel, is the same on any conforming toolchain.
#pragma once

#include <cstdint>
#include <vector>

#include "avd/image/image.hpp"

namespace avd::data {

/// log2 of the table size: each draw consumes 16 bits.
inline constexpr int kSensorNoiseTableBits = 16;

/// Bound on |table share of k - P(lround(sigma Z) = k)| for |k| < 255, where
/// a share is cells / 2^16: each of the two CDF boundaries around k is
/// rounded to the nearest cell (2^-17 each) after an integration error below
/// 5e-10. Offsets +-255 hold the whole tail beyond them, which clamps to the
/// same stored value as any larger offset.
inline constexpr double kSensorNoiseTableError = 0x1p-16 + 1e-9;

/// The 2^16-entry inverse-CDF table of lround(sigma Z), offsets clipped to
/// [-255, 255]. Symmetric: offset k and -k own the same number of cells.
/// All zeros when sigma <= 0.
[[nodiscard]] std::vector<std::int16_t> sensor_noise_table(double sigma);

/// Add noise of standard deviation `sigma` (gray levels) to every sample of
/// `frame`. One mt19937_64 stream seeded with `seed` yields four 16-bit
/// table indices per word, low lane first, running through the r, g and b
/// planes in turn. sigma <= 0 leaves the frame untouched.
void add_sensor_noise(img::RgbImage& frame, double sigma, std::uint64_t seed);

}  // namespace avd::data
