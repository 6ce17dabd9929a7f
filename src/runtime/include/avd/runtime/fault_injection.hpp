// Deterministic fault injection for the serving runtime.
//
// A FaultPlan is a list of (kind, stream, frame range, magnitude) specs; a
// FaultInjector executes the plan against a serve() when installed via
// StreamServerConfig::fault_injector:
//
//   SourceStall    src.next() sleeps `magnitude` ms before each frame in the
//                  range — a camera hiccup / bus stall.
//   SourceEof      the source ends early at `from_frame`.
//   SourceError    src.next() throws TransientSourceError at source position
//                  `from_frame`, for the first `count` attempts — exercises
//                  the ingest retry-with-backoff path.
//   GarbageFrame   frames in the range are corrupted (non-finite light
//                  level, chosen by the plan seed) — ingest validation must
//                  refuse them before they poison the control plane.
//   DetectSlowdown detect workers sleep an extra `magnitude` ms for each of
//                  the stream's frames in the range — a slow accelerator.
//   ForceDegrade   pins the stream's degradation ladder to level
//                  `magnitude` for frames in the range. Because the pin is
//                  keyed on the control-plane frame index, the resulting
//                  transitions and detections are a pure function of
//                  (plan, sequence) — this is what makes ladder behaviour
//                  testable bit-for-bit, independent of wall-clock health.
//
// Everything is deterministic given (plan, seed): no internal clocks or
// global RNG. `stream = -1` applies a spec to every stream. Use one injector
// per serve(); its counters and retry bookkeeping accumulate.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "avd/runtime/frame_source.hpp"

namespace avd::runtime {

/// Thrown by a fault-wrapped source for SourceError faults; the ingest
/// stage's retry-with-backoff treats exactly this type as transient.
class TransientSourceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FaultKind : std::uint8_t {
  SourceStall = 0,
  SourceEof,
  SourceError,
  GarbageFrame,
  DetectSlowdown,
  ForceDegrade,
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::SourceStall;
  int stream = -1;     ///< target stream; -1 = every stream
  int from_frame = 0;  ///< first affected frame (source position or, for
                       ///< DetectSlowdown/ForceDegrade, pipeline index)
  int count = 1;       ///< frames affected (SourceError: failing attempts)
  double magnitude = 0.0;  ///< ms to stall/slow down; level for ForceDegrade
};

struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultSpec> faults;

  /// A seed-derived pseudorandom mix of every fault kind except SourceEof —
  /// the chaos lane's diet. Same (seed, n_streams, n_frames) → same plan.
  [[nodiscard]] static FaultPlan chaos(std::uint64_t seed, int n_streams,
                                       int n_frames);
};

/// Executes a FaultPlan. Thread-safe: wrapped sources run on ingest workers,
/// the per-frame queries on control/detect workers.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Decorate `inner` with the plan's source-side faults for `stream`.
  /// Pass-through (still wrapped, zero-cost) when no spec targets it.
  [[nodiscard]] std::unique_ptr<FrameSource> wrap(
      int stream, std::unique_ptr<FrameSource> inner);

  /// Extra detect-stage latency for this frame, in ms (0 = none).
  [[nodiscard]] double detect_slowdown_ms(int stream, int frame) const;

  /// Ladder level a ForceDegrade spec pins this frame to, if any.
  [[nodiscard]] std::optional<int> forced_degrade_level(int stream,
                                                        int frame) const;

  struct Counters {
    std::uint64_t stalls = 0;           ///< frames delayed by SourceStall
    std::uint64_t errors = 0;           ///< TransientSourceError throws
    std::uint64_t garbage = 0;          ///< frames corrupted
    std::uint64_t slowdown_frames = 0;  ///< detect tasks slowed down
  };
  [[nodiscard]] Counters counters() const;
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  friend class FaultySource;
  FaultPlan plan_;
  mutable std::mutex mutex_;  ///< error-attempt bookkeeping + counters
  mutable Counters counters_;
  /// Remaining failing attempts per SourceError spec (parallel to
  /// plan_.faults; 0 for other kinds).
  std::vector<int> error_attempts_left_;
};

}  // namespace avd::runtime
