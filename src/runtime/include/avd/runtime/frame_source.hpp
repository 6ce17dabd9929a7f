// Frame sources: where the serving runtime's streams come from.
//
// A FrameSource is one camera's worth of frames, pulled in order by a single
// ingest worker. The stock implementation adapts data::DriveSequence so
// every scripted sequence in the repo (canonical_drive, the bench scripts)
// plugs into the StreamServer unchanged; a live deployment would implement
// the same interface over a capture device.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "avd/datasets/sequence.hpp"

namespace avd::runtime {

/// A pull-based stream of frames. next() is called by one ingest worker at a
/// time (the StreamServer never shares a source between workers), so
/// implementations need no internal locking.
class FrameSource {
 public:
  virtual ~FrameSource() = default;
  /// Frames remaining, if known in advance (-1 = unknown).
  [[nodiscard]] virtual int frame_count() const { return -1; }
  /// The next frame's metadata, or nullopt when the stream ends.
  [[nodiscard]] virtual std::optional<data::SequenceFrame> next() = 0;
};

/// Adapter over a scripted drive sequence.
class SequenceFrameSource final : public FrameSource {
 public:
  explicit SequenceFrameSource(data::DriveSequence sequence)
      : sequence_(std::move(sequence)) {}

  [[nodiscard]] int frame_count() const override {
    return sequence_.frame_count();
  }

  [[nodiscard]] std::optional<data::SequenceFrame> next() override {
    if (next_ >= sequence_.frame_count()) return std::nullopt;
    return sequence_.frame(next_++);
  }

 private:
  data::DriveSequence sequence_;
  int next_ = 0;
};

/// Convenience: wrap a spec/sequence as a source pointer.
[[nodiscard]] inline std::unique_ptr<FrameSource> make_source(
    data::DriveSequence sequence) {
  return std::make_unique<SequenceFrameSource>(std::move(sequence));
}
[[nodiscard]] inline std::unique_ptr<FrameSource> make_source(
    const data::SequenceSpec& spec) {
  return std::make_unique<SequenceFrameSource>(data::DriveSequence(spec));
}

}  // namespace avd::runtime
