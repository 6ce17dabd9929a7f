#include "avd/runtime/fault_injection.hpp"

#include <chrono>
#include <limits>
#include <string>
#include <thread>

namespace avd::runtime {
namespace {

/// splitmix64: tiny, seedable, no global state — all the chaos plan needs.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool in_range(const FaultSpec& spec, int stream, int frame) {
  if (spec.stream != -1 && spec.stream != stream) return false;
  return frame >= spec.from_frame && frame < spec.from_frame + spec.count;
}

/// The seed decides *which* non-finite value corrupts a frame, so garbage
/// is varied but reproducible.
double garbage_light_level(std::uint64_t seed, int stream, int frame) {
  std::uint64_t state = seed ^ (static_cast<std::uint64_t>(stream) << 32) ^
                        static_cast<std::uint64_t>(frame);
  switch (splitmix64(state) % 3) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return std::numeric_limits<double>::infinity();
    default: return -std::numeric_limits<double>::infinity();
  }
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::SourceStall: return "source-stall";
    case FaultKind::SourceEof: return "source-eof";
    case FaultKind::SourceError: return "source-error";
    case FaultKind::GarbageFrame: return "garbage-frame";
    case FaultKind::DetectSlowdown: return "detect-slowdown";
    case FaultKind::ForceDegrade: return "force-degrade";
  }
  return "?";
}

FaultPlan FaultPlan::chaos(std::uint64_t seed, int n_streams, int n_frames) {
  FaultPlan plan;
  plan.seed = seed;
  std::uint64_t state = seed * 0x2545f4914f6cdd1dull + 1;
  for (int s = 0; s < n_streams; ++s) {
    // Roughly half the streams get one fault each; magnitudes stay small so
    // the chaos suite exercises paths, not wall-clock.
    if (splitmix64(state) % 2 != 0) continue;
    FaultSpec spec;
    spec.stream = s;
    spec.from_frame =
        n_frames > 1 ? static_cast<int>(splitmix64(state) %
                                        static_cast<std::uint64_t>(n_frames)) /
                           2
                     : 0;
    spec.count = 1 + static_cast<int>(splitmix64(state) % 3);
    switch (splitmix64(state) % 5) {
      case 0:
        spec.kind = FaultKind::SourceStall;
        spec.magnitude = 1.0 + static_cast<double>(splitmix64(state) % 4);
        break;
      case 1:
        spec.kind = FaultKind::SourceError;
        spec.count = 1 + static_cast<int>(splitmix64(state) % 2);
        break;
      case 2: spec.kind = FaultKind::GarbageFrame; break;
      case 3:
        spec.kind = FaultKind::DetectSlowdown;
        spec.magnitude = 1.0 + static_cast<double>(splitmix64(state) % 4);
        break;
      default:
        spec.kind = FaultKind::ForceDegrade;
        spec.magnitude = static_cast<double>(1 + splitmix64(state) % 3);
        break;
    }
    plan.faults.push_back(spec);
  }
  return plan;
}

// Not in the anonymous namespace: FaultInjector's friend declaration names
// avd::runtime::FaultySource.
/// FrameSource decorator applying the source-side fault kinds.
class FaultySource final : public FrameSource {
 public:
  FaultySource(FaultInjector* injector, int stream,
               std::unique_ptr<FrameSource> inner)
      : injector_(injector), stream_(stream), inner_(std::move(inner)) {}

  [[nodiscard]] int frame_count() const override {
    return inner_->frame_count();
  }

  [[nodiscard]] std::optional<data::SequenceFrame> next() override {
    FaultInjector& fi = *injector_;
    const int pos = position_;
    double stall_ms = 0.0;
    bool eof = false;
    bool garbage = false;
    {
      std::lock_guard<std::mutex> lock(fi.mutex_);
      for (std::size_t i = 0; i < fi.plan_.faults.size(); ++i) {
        const FaultSpec& spec = fi.plan_.faults[i];
        switch (spec.kind) {
          case FaultKind::SourceStall:
            if (in_range(spec, stream_, pos)) {
              stall_ms += spec.magnitude;
              ++fi.counters_.stalls;
            }
            break;
          case FaultKind::SourceEof:
            if ((spec.stream == -1 || spec.stream == stream_) &&
                pos >= spec.from_frame) {
              eof = true;
            }
            break;
          case FaultKind::SourceError:
            if ((spec.stream == -1 || spec.stream == stream_) &&
                pos == spec.from_frame && fi.error_attempts_left_[i] > 0) {
              --fi.error_attempts_left_[i];
              ++fi.counters_.errors;
              throw TransientSourceError(
                  "injected source error: stream " + std::to_string(stream_) +
                  " frame " + std::to_string(pos));
            }
            break;
          case FaultKind::GarbageFrame:
            if (in_range(spec, stream_, pos)) {
              garbage = true;
              ++fi.counters_.garbage;
            }
            break;
          case FaultKind::DetectSlowdown:
          case FaultKind::ForceDegrade:
            break;  // pipeline-side kinds; not source faults
        }
      }
    }
    if (eof) return std::nullopt;
    if (stall_ms > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(stall_ms));
    std::optional<data::SequenceFrame> frame = inner_->next();
    ++position_;
    if (frame && garbage)
      frame->light_level = garbage_light_level(fi.plan_.seed, stream_, pos);
    return frame;
  }

 private:
  FaultInjector* injector_;
  int stream_;
  std::unique_ptr<FrameSource> inner_;
  int position_ = 0;  ///< source position (pre-validation; single-threaded)
};

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  error_attempts_left_.reserve(plan_.faults.size());
  for (const FaultSpec& spec : plan_.faults)
    error_attempts_left_.push_back(
        spec.kind == FaultKind::SourceError ? std::max(1, spec.count) : 0);
}

std::unique_ptr<FrameSource> FaultInjector::wrap(
    int stream, std::unique_ptr<FrameSource> inner) {
  return std::make_unique<FaultySource>(this, stream, std::move(inner));
}

double FaultInjector::detect_slowdown_ms(int stream, int frame) const {
  double ms = 0.0;
  bool slowed = false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const FaultSpec& spec : plan_.faults) {
    if (spec.kind != FaultKind::DetectSlowdown) continue;
    if (in_range(spec, stream, frame)) {
      ms += spec.magnitude;
      slowed = true;
    }
  }
  if (slowed) ++counters_.slowdown_frames;
  return ms;
}

std::optional<int> FaultInjector::forced_degrade_level(int stream,
                                                       int frame) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::optional<int> level;
  for (const FaultSpec& spec : plan_.faults) {
    if (spec.kind != FaultKind::ForceDegrade) continue;
    if (in_range(spec, stream, frame))
      level = static_cast<int>(spec.magnitude);
  }
  return level;
}

FaultInjector::Counters FaultInjector::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace avd::runtime
