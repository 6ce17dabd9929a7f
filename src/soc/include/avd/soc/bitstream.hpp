// Partial bitstream model.
//
// A partial bitstream's size is proportional to the configuration frames of
// the reconfigurable region, i.e. to the region's share of the device
// (paper: 8 MB partial bit files for the vehicle-detection partition).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "avd/soc/resources.hpp"

namespace avd::soc {

struct PartialBitstream {
  std::string config_name;     ///< "day-dusk" or "dark"
  std::uint64_t bytes = 0;

  /// Optional configuration frames. When present (attach_payload), the
  /// reconfiguration controller verifies `crc` before driving the ICAP — a
  /// corrupted partial bitstream must never reach the fabric.
  std::vector<std::uint8_t> payload{};
  std::uint32_t crc = 0;

  [[nodiscard]] double megabytes() const {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  }
  [[nodiscard]] bool has_payload() const { return !payload.empty(); }

  /// Fill `payload` with `bytes` deterministic pseudo-random configuration
  /// words (seeded by `seed`) and record their CRC-32.
  void attach_payload(std::uint64_t seed);

  /// True when the payload matches the recorded CRC (or no payload exists).
  [[nodiscard]] bool verify_integrity() const;
};

struct BitstreamParams {
  /// Full-device configuration size. Sized so the paper's 45%-of-logic
  /// partition yields the reported 8 MB partial files.
  std::uint64_t full_device_bytes = 18641920;  // ~17.8 MiB
};

/// Size of the partial bitstream reconfiguring `partition` on `device`.
[[nodiscard]] PartialBitstream make_partial_bitstream(
    const std::string& config_name, const ModuleResources& partition,
    const DeviceResources& device, const BitstreamParams& params = {});

}  // namespace avd::soc
