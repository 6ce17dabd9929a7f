// Span-based tracing: the simulation's answer to "what did each stage of the
// pipeline actually spend its time on" — the software twin of the paper's
// Vivado ILA captures, which show begin/end of hardware activity on a shared
// timeline.
//
// Design:
//  * `ScopedSpan` is an RAII begin/end pair. Construction checks one relaxed
//    atomic (the tracer's enable flag); when tracing is disabled that load is
//    the *entire* cost, so instrumentation can stay in hot paths permanently.
//  * Completed spans land in per-thread ring buffers. The recording thread is
//    the only writer of its ring (a relaxed head index published with
//    release), so the hot path takes no lock and touches no shared cache
//    line. A full ring overwrites its oldest spans (drop count is reported,
//    and published live into MetricsRegistry as obs.trace.dropped_spans so
//    span loss is itself observable).
//  * **Causal frame tracing** (Dapper-style): a `TraceContext` names one
//    logical frame's journey (`trace_id`) and the span it is currently
//    inside (`parent_span_id`). The context travels two ways: explicitly,
//    carried with the frame's task across queue hops, and implicitly,
//    through a thread-local that `TraceScope` installs and every armed
//    `ScopedSpan` inherits and re-installs for its own children. A frame's
//    spans therefore form one linked tree across worker threads, which
//    soc::to_chrome_trace renders as Perfetto flow arcs.
//  * `drain()` / `snapshot()` collect every thread's spans into one vector.
//    Like the rest of the repo's instrumentation (EventLog, the metrics
//    registry's histograms) the read side is meant for quiesced writers: join your workers, then
//    export. Span names/sources must be string literals (or otherwise
//    outlive the tracer) — records store the pointers, not copies.
//
// Export: soc::to_chrome_trace(log, spans) merges spans (Chrome "X"
// complete events, plus flow events for linked spans) with EventLog instants
// into one Perfetto-loadable file. obs::frame_trace reassembles per-frame
// chains and critical-path latency offline.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <vector>

namespace avd::obs {

class Counter;

/// Identity of one causal chain (one frame) plus the span to parent on.
/// trace_id 0 means "not part of any trace" — spans still record, they just
/// don't link.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;

  [[nodiscard]] bool linked() const { return trace_id != 0; }
};

/// One numeric span attribute (frame index, stream id, mode, ...). The name
/// must be a string literal, like span names.
struct SpanArg {
  const char* name = nullptr;
  std::int64_t value = 0;
};

/// One completed span. Timestamps are wall-clock nanoseconds since the
/// tracer's construction (steady clock), so spans from every thread share a
/// timebase.
struct SpanRecord {
  static constexpr int kMaxArgs = 4;

  const char* name = nullptr;    ///< static string: what ran
  const char* source = nullptr;  ///< static string: component ("detect/dark")
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  int thread = 0;  ///< per-tracer thread index (rows in the trace)

  std::uint64_t trace_id = 0;        ///< 0 = not part of a frame trace
  std::uint64_t span_id = 0;         ///< unique per recorded span (when armed)
  std::uint64_t parent_span_id = 0;  ///< 0 = root of its trace
  int arg_count = 0;
  SpanArg args[kMaxArgs] = {};

  /// Value of the named arg, or `fallback` when absent.
  [[nodiscard]] std::int64_t arg(const char* name,
                                 std::int64_t fallback = -1) const;
};

class Tracer {
 public:
  /// Spans kept per thread; a full ring overwrites its oldest entries.
  static constexpr std::size_t kRingCapacity = std::size_t{1} << 14;
  /// Open-span shadow-stack depth exposed per thread; deeper nesting still
  /// balances (the depth counter keeps counting) but only the outermost
  /// kMaxOpenDepth names are visible to samplers.
  static constexpr int kMaxOpenDepth = 32;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer every ScopedSpan records into. Never destroyed.
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since tracer construction (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Allocate a fresh, process-unique, nonzero trace id (one per frame).
  [[nodiscard]] static std::uint64_t new_trace_id();
  /// Allocate a fresh, process-unique, nonzero span id.
  [[nodiscard]] static std::uint64_t new_span_id();

  /// The calling thread's current trace context (set by TraceScope /
  /// ScopedSpan). Zeroes when the thread is outside any trace.
  [[nodiscard]] static TraceContext current_context();

  /// Record a completed span (normally via ScopedSpan, not directly).
  void record(const char* name, const char* source, std::uint64_t begin_ns,
              std::uint64_t end_ns) {
    record(SpanRecord{name, source, begin_ns, end_ns});
  }
  /// Record a fully populated span; `thread` is filled in by the tracer.
  void record(SpanRecord span);

  /// All spans from all threads, oldest-first per thread, concatenated by
  /// thread registration order. Writers must be quiesced.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  /// snapshot(), then reset every ring (drop counters included).
  std::vector<SpanRecord> drain();
  /// Reset every ring without reading it. Writers must be quiesced.
  void clear();

  /// Spans lost to ring overwrite since the last drain()/clear().
  [[nodiscard]] std::uint64_t dropped() const;
  /// Threads that have recorded at least one span since construction.
  [[nodiscard]] std::size_t thread_count() const;

  /// One thread's open (begun, not yet ended) span stack at sampling time,
  /// outermost first. `frames` entries are the same static strings span
  /// names are.
  struct OpenStack {
    int thread = 0;
    int depth = 0;  ///< valid frames; clamped to kMaxOpenDepth
    std::array<const char*, kMaxOpenDepth> frames{};
  };

  /// Maintain the calling thread's open-span shadow stack. Called by armed
  /// ScopedSpans on entry/exit: a relaxed slot store plus a release depth
  /// store, so the stack is readable from other threads without locks.
  void push_open_span(const char* name);
  void pop_open_span();

  /// Every registered thread's current open-span stack (threads with no
  /// span open are omitted). Safe against live writers: a sample races
  /// pushes/pops by design and may be one frame stale — sampling noise, not
  /// corruption, since names are immortal string literals. This is the
  /// read side SampleProfiler drives at ~100 Hz.
  [[nodiscard]] std::vector<OpenStack> sample_open_stacks() const;

 private:
  friend class TraceScope;

  struct ThreadBuffer {
    std::atomic<std::uint64_t> head{0};  ///< total spans ever written
    std::vector<SpanRecord> ring;        ///< size kRingCapacity, lazily filled
    int index = 0;                       ///< per-tracer thread index
    Counter* dropped_per_thread = nullptr;  ///< obs.trace.dropped_spans.t<N>
    Counter* dropped_total = nullptr;       ///< obs.trace.dropped_spans
    /// Open-span shadow stack: written only by the owning thread, read by
    /// sampling threads (see sample_open_stacks).
    std::atomic<int> open_depth{0};
    std::array<std::atomic<const char*>, kMaxOpenDepth> open_stack{};
  };

  ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t id_ = 0;  ///< distinguishes tracer instances in the TL cache
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII: installs `ctx` as the calling thread's current trace context and
/// restores the previous one on destruction. The runtime wraps each queue
/// hop's processing in one of these so spans recorded on whatever worker
/// picked the frame up join the frame's trace.
class TraceScope {
 public:
  explicit TraceScope(TraceContext ctx);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext prev_;
};

/// RAII span: times its own scope and records into Tracer::global() at
/// destruction. `name`, `source` and arg names must be string literals (or
/// otherwise outlive the tracer's records).
///
/// When armed (tracing enabled at construction) the span inherits the
/// thread's current TraceContext as its parent, allocates its own span id,
/// and installs itself as the current context so nested spans (and spans in
/// called-into layers: core, detect, soc) become its children.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* source)
      : ScopedSpan(name, source, {}) {}

  ScopedSpan(const char* name, const char* source,
             std::initializer_list<SpanArg> args) {
    Tracer& tracer = Tracer::global();
    if (!tracer.enabled()) return;
    tracer_ = &tracer;
    span_.name = name;
    span_.source = source;
    for (const SpanArg& a : args) {
      if (span_.arg_count >= SpanRecord::kMaxArgs) break;
      span_.args[span_.arg_count++] = a;
    }
    const TraceContext parent = Tracer::current_context();
    span_.trace_id = parent.trace_id;
    span_.parent_span_id = parent.parent_span_id;
    span_.span_id = Tracer::new_span_id();
    prev_context_ = parent;
    install_context({parent.trace_id, span_.span_id});
    tracer.push_open_span(name);
    span_.begin_ns = tracer.now_ns();
  }

  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = tracer_->now_ns();
    tracer_->pop_open_span();
    install_context(prev_context_);
    tracer_->record(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Append one numeric attribute (no-op when unarmed or already at 4).
  void arg(const char* name, std::int64_t value) {
    if (tracer_ != nullptr && span_.arg_count < SpanRecord::kMaxArgs)
      span_.args[span_.arg_count++] = {name, value};
  }

  /// Context children of this span should carry: {trace_id, this span's id}.
  /// Zeroes when the span is unarmed — callers can pass it along regardless.
  [[nodiscard]] TraceContext context() const {
    return {span_.trace_id, span_.span_id};
  }

 private:
  static void install_context(TraceContext ctx);

  Tracer* tracer_ = nullptr;  ///< null when tracing was off at construction
  SpanRecord span_;
  TraceContext prev_context_;
};

}  // namespace avd::obs
