// resize_nearest's per-axis sampling map, private to src/image. The fused
// taillight mask reads the pixels a nearest resize of its full-resolution
// mask would keep, so both take their source indices from this one map.
#pragma once

#include <vector>

namespace avd::img::detail {

/// For each of `out_len` output coordinates, the source coordinate in
/// [0, src_len) whose pixel centre is nearest its own mapped centre
/// (align-centres convention, as resize_bilinear). Both lengths positive.
[[nodiscard]] std::vector<int> nearest_source_indices(int src_len, int out_len);

}  // namespace avd::img::detail
