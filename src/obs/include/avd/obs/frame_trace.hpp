// Offline reassembly of causal frame traces from drained spans.
//
// The tracer records spans per thread; a frame's journey through the
// serving pipeline (ingest → control on one worker, then detect, then
// report) is therefore shredded across rings. This module groups spans back
// by trace_id and answers the questions the paper's temporal claims hinge
// on:
//
//  * critical-path latency — first span begin to last span end of one
//    trace, i.e. ingest-enqueue to report-dequeue for a runtime frame;
//  * chain completeness — did every expected stage record a span, and do
//    parent links resolve inside the trace;
//  * concurrency shape — how many distinct threads one frame crossed.
//
// Used by tests (flow-linkage validation), examples/profile_pipeline
// (self-check) and examples/frame_slo_monitor.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "avd/obs/trace.hpp"

namespace avd::obs {

/// All spans of one trace_id, begin-ordered, plus derived shape.
struct FrameTrace {
  std::uint64_t trace_id = 0;
  /// "stream" / "frame" args, taken from any span in the chain carrying
  /// them (-1 when no span did).
  std::int64_t stream = -1;
  std::int64_t frame = -1;
  std::vector<SpanRecord> spans;  ///< sorted by begin_ns
  std::uint64_t begin_ns = 0;     ///< earliest span begin
  std::uint64_t end_ns = 0;       ///< latest span end

  /// End-to-end wall-clock latency of the chain (ingest-enqueue to
  /// report-dequeue when the runtime produced it).
  [[nodiscard]] std::uint64_t critical_path_ns() const {
    return end_ns - begin_ns;
  }
  /// Number of distinct recording threads the chain crossed.
  [[nodiscard]] std::size_t thread_count() const;
  /// True iff some span in the chain has this name.
  [[nodiscard]] bool has_span(std::string_view name) const;
  /// True iff every non-root span's parent_span_id is another span of this
  /// chain — i.e. the chain is connected, not merely co-labelled.
  [[nodiscard]] bool connected() const;
};

/// Group spans by trace_id (spans with trace_id 0 are skipped), ordered by
/// first-span begin time.
[[nodiscard]] std::vector<FrameTrace> assemble_frame_traces(
    std::span<const SpanRecord> spans);

/// One span as a JSON object (name, source, timestamps, link ids, args);
/// parses with obs::json. Used by the flight recorder's bundles.
[[nodiscard]] std::string to_json(const SpanRecord& span);

/// One chain as a JSON object: identity, derived shape (critical path,
/// connectedness) and the full span list.
[[nodiscard]] std::string to_json(const FrameTrace& trace);

}  // namespace avd::obs
