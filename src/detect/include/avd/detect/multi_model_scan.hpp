// Multi-model sliding-window scan over a shared HOG front end.
//
// The countryside configuration (DESIGN.md, extension) runs two classifiers
// — vehicle and animal — behind ONE gradient/histogram pipeline, exactly as
// the hardware shares those stages (resources.cpp: the animal blocks add
// only a normaliser and an SVM). This scanner is the software equivalent,
// pushed one stage further than the hardware sharing: per pyramid level the
// cell grid AND the normalised blocks are computed once, and every model
// scores windows as sums of per-block dot products against its sliced
// weights (ml::WeightSlices) — no per-window descriptor is ever
// materialised.
//
// Each level is one task. It builds the level's cell grid, then walks the
// level in strips of eight anchor rows: it normalises the block rows the
// strip newly needs into a ring (a hog::BlockGrid of the tallest window's
// block-row span plus seven rows, about 1 MB at 1080p level 0), and scores
// every model's windows whose top row lies in the strip. Blocks are read
// while still in the cache of the core that wrote them, and a level's
// blocks never exist all at once — the paper's normalised HOG memory holds
// a few rows of blocks, not a frame of them. Levels run in parallel on
// SlidingWindowParams::pool; detections merge in (level, model, row,
// column) order, so the output is identical for every thread count and
// bit-identical to detect_multiscale_multi_reference (test-enforced).
#pragma once

#include "avd/detect/hog_svm_detector.hpp"

namespace avd::det {

/// Scan `frame` with every model in `models` (all must share HogParams with
/// identical cell size/bins/block geometry). Returns NMS-filtered detections
/// of all classes merged (NMS is per-class). Throws std::invalid_argument
/// for a malformed model, and for stride_cells < 1, max_levels < 1 or a
/// scale_step not above 1 (NaN included) — on both scan paths.
[[nodiscard]] std::vector<Detection> detect_multiscale_multi(
    const img::ImageU8& frame, std::span<const HogSvmModel* const> models,
    const SlidingWindowParams& params = {});

/// The reference scalar scan: one window_descriptor + full-length
/// svm.decision per window, single-threaded, no precomputed blocks. Kept as
/// the correctness oracle for the block-grid scanner — both must produce
/// detection-for-detection identical output (same boxes, bit-equal scores).
[[nodiscard]] std::vector<Detection> detect_multiscale_multi_reference(
    const img::ImageU8& frame, std::span<const HogSvmModel* const> models,
    const SlidingWindowParams& params = {});

/// Window anchor positions along one axis of a `cells`-wide grid for a
/// `window_cells`-wide window stepping by `stride_cells`: 0, s, 2s, ...,
/// with the final anchor clamped to cells - window_cells so the right/bottom
/// edge is always covered (an off-stride tail previously skipped up to
/// stride-1 cells of border — a vehicle flush against the frame edge was
/// invisible). Empty when the window does not fit.
[[nodiscard]] std::vector<int> window_anchor_positions(int cells,
                                                       int window_cells,
                                                       int stride_cells);

}  // namespace avd::det
