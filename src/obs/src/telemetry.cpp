#include "avd/obs/telemetry.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "avd/obs/trace.hpp"

namespace avd::obs {

std::string to_json(const TelemetrySample& sample) {
  std::ostringstream os;
  // Splice the metrics object into the sample object: both are '{...}'.
  const std::string metrics = to_json(sample.metrics);
  os << "{\"t_ns\":" << sample.t_ns << ",\"seq\":" << sample.seq << ','
     << metrics.substr(1);
  return os.str();
}

TelemetryExporter::TelemetryExporter(MetricsRegistry& registry,
                                     TelemetryConfig config)
    : registry_(&registry), config_(std::move(config)) {
  if (config_.period.count() <= 0) config_.period = std::chrono::milliseconds(1);
}

TelemetryExporter::~TelemetryExporter() { stop(); }

void TelemetryExporter::start() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    if (running_) return;
    stop_requested_ = false;
    running_ = true;
  }
  if (!config_.jsonl_path.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!sink_.is_open()) {
      sink_.open(config_.jsonl_path, std::ios::app);
      if (!sink_) {
        {
          std::lock_guard<std::mutex> wl(wake_mutex_);
          running_ = false;
        }
        throw std::runtime_error("TelemetryExporter: cannot open " +
                                 config_.jsonl_path);
      }
    }
  }
  thread_ = std::thread([this] { run_loop(); });
}

void TelemetryExporter::stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  // One final sample so even a run shorter than one period leaves a row,
  // and the last partial window is never lost.
  take_sample();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sink_.is_open()) sink_.flush();
  }
  std::lock_guard<std::mutex> lock(wake_mutex_);
  running_ = false;
}

bool TelemetryExporter::running() const {
  std::lock_guard<std::mutex> lock(wake_mutex_);
  return running_;
}

void TelemetryExporter::sample_now() { take_sample(); }

std::uint64_t TelemetryExporter::total_samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_samples_;
}

void TelemetryExporter::run_loop() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  while (!stop_requested_) {
    // wait_for returns early (true) only on stop; spurious wakes re-check.
    if (wake_.wait_for(lock, config_.period,
                       [this] { return stop_requested_; }))
      break;
    lock.unlock();
    take_sample();
    lock.lock();
  }
}

void TelemetryExporter::take_sample() {
  if (config_.rollup_before_sample) registry_->rollup();
  TelemetrySample sample;
  sample.t_ns = Tracer::global().now_ns();
  sample.metrics = registry_->snapshot();

  TelemetrySample prev;
  bool has_prev = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // seq is assigned under the mutex, so rows are gapless and ordered even
    // when sample_now() races the background thread.
    sample.seq = total_samples_;
    has_prev = total_samples_ > 0;
    if (has_prev) prev = std::move(last_);
    last_ = sample;
    ++total_samples_;
    if (sink_.is_open()) sink_ << to_json(sample) << '\n';
  }
  if (config_.on_sample)
    config_.on_sample(has_prev ? &prev : nullptr, sample);
}

}  // namespace avd::obs
