// Causal frame tracing through the StreamServer: a 4-stream x 4-worker run
// must yield, for every reported frame, one connected span chain
// ingest -> control -> detect -> report sharing a trace_id across >= 2
// threads (a coast-ladder serve: coast_frame in place of detect) — validated both on the drained spans (obs::assemble_frame_traces)
// and on the exported Chrome trace, re-parsed through obs::json.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "avd/obs/frame_trace.hpp"
#include "avd/obs/json.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/fault_injection.hpp"
#include "avd/runtime/stream_server.hpp"
#include "avd/soc/trace_export.hpp"
#include "../support/tiny_models.hpp"

namespace avd::runtime {
namespace {

std::vector<data::DriveSequence> four_streams(int frames_per_segment) {
  std::vector<data::DriveSequence> seqs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    data::SequenceSpec spec =
        data::DriveSequence::canonical_drive({240, 136}, frames_per_segment);
    spec.seed = 4100 + i;
    seqs.emplace_back(spec);
  }
  return seqs;
}

struct TracedRun {
  std::vector<StreamResult> results;
  std::vector<obs::SpanRecord> spans;
  std::string chrome_trace;
};

TracedRun traced_serve() {
  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  core::AdaptiveSystem system(models, cfg);

  StreamServerConfig sc;
  sc.ingest_workers = 2;
  sc.detect_workers = 4;
  StreamServer server(system, sc);

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  TracedRun run;
  run.results = server.serve_sequences(four_streams(5));
  tracer.set_enabled(false);
  run.spans = tracer.drain();
  // Stream 0's simulated-time session log rides along with the spans.
  run.chrome_trace =
      soc::to_chrome_trace(run.results[0].report.log, run.spans);
  return run;
}

TEST(FrameTracing, EveryReportedFrameHasAConnectedCrossThreadChain) {
  const TracedRun run = traced_serve();
  ASSERT_EQ(run.results.size(), 4u);

  const std::vector<obs::FrameTrace> traces =
      obs::assemble_frame_traces(run.spans);
  // Index the frame traces by (stream, frame).
  std::map<std::pair<std::int64_t, std::int64_t>, const obs::FrameTrace*> by_frame;
  for (const obs::FrameTrace& t : traces)
    if (t.stream >= 0 && t.frame >= 0)
      by_frame[{t.stream, t.frame}] = &t;

  std::size_t checked = 0;
  for (const StreamResult& result : run.results) {
    ASSERT_FALSE(result.report.frames.empty());
    for (const core::AdaptiveFrameReport& frame : result.report.frames) {
      const auto it = by_frame.find({result.stream, frame.index});
      ASSERT_NE(it, by_frame.end())
          << "no trace for stream " << result.stream << " frame "
          << frame.index;
      const obs::FrameTrace& t = *it->second;
      EXPECT_NE(t.trace_id, 0u);
      EXPECT_TRUE(t.has_span("ingest_frame")) << t.trace_id;
      EXPECT_TRUE(t.has_span("control_frame")) << t.trace_id;
      EXPECT_TRUE(t.has_span("detect_frame") || t.has_span("drop_frame"))
          << t.trace_id;
      EXPECT_TRUE(t.has_span("collect_report")) << t.trace_id;
      EXPECT_TRUE(t.connected()) << "trace " << t.trace_id
                                 << " has unresolvable parent links";
      EXPECT_GE(t.thread_count(), 2u) << t.trace_id;
      // Every span of the chain shares the one trace id.
      for (const obs::SpanRecord& s : t.spans)
        EXPECT_EQ(s.trace_id, t.trace_id);
      EXPECT_GT(t.critical_path_ns(), 0u);
      ++checked;
    }
  }
  EXPECT_GE(checked, 4u * 5u);  // at least frames_per_segment per stream
}

TEST(FrameTracing, ExportedChromeTraceLinksFramesWithFlowEvents) {
  const TracedRun run = traced_serve();
  const std::optional<obs::json::Value> doc =
      obs::json::parse(run.chrome_trace);
  ASSERT_TRUE(doc.has_value()) << "exported trace is not valid JSON";
  const obs::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, obs::json::Value::Type::Array);

  // Collect the span ("X") events' trace ids and the flow events per id.
  std::map<double, std::set<std::string>> span_names_of;  // trace_id -> names
  std::map<double, std::vector<std::string>> flow_phases_of;
  for (const obs::json::Value& e : events->array) {
    const obs::json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      const obs::json::Value* args = e.find("args");
      if (args == nullptr) continue;
      const obs::json::Value* trace_id = args->find("trace_id");
      if (trace_id == nullptr) continue;
      span_names_of[trace_id->number].insert(e.find("name")->string);
    } else if (ph->string == "s" || ph->string == "t" || ph->string == "f") {
      const obs::json::Value* id = e.find("id");
      ASSERT_NE(id, nullptr);
      flow_phases_of[id->number].push_back(ph->string);
    }
  }

  // Reported frames: 4 streams x canonical_drive(5) frames.
  std::size_t reported = 0;
  for (const StreamResult& r : run.results) reported += r.report.frames.size();
  ASSERT_GE(span_names_of.size(), reported);

  std::size_t linked = 0;
  for (const auto& [trace_id, names] : span_names_of) {
    if (names.count("collect_report") == 0) continue;  // not a full frame
    ++linked;
    EXPECT_TRUE(names.count("ingest_frame")) << trace_id;
    EXPECT_TRUE(names.count("control_frame")) << trace_id;
    // Each full frame renders as one flow arc: a start, a finish, and
    // optional intermediate steps.
    const auto flow = flow_phases_of.find(trace_id);
    ASSERT_NE(flow, flow_phases_of.end())
        << "frame trace " << trace_id << " has no flow events";
    EXPECT_GE(flow->second.size(), 2u);
    EXPECT_EQ(flow->second.front(), "s");
    EXPECT_EQ(flow->second.back(), "f");
  }
  EXPECT_EQ(linked, reported);
}

// Ladder frames keep connected chains too: with stream 0 pinned to level 2,
// a coast frame's chain reads ingest -> control -> coast_frame -> collect,
// and every other frame's has its detect (or drop/shed) span.
TEST(FrameTracing, CoastLadderFramesHaveConnectedChains) {
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  core::AdaptiveSystem system(test_support::tiny_models(), cfg);
  FaultPlan plan;
  plan.faults.push_back({FaultKind::ForceDegrade, 0, 0, 64, 2.0});
  FaultInjector injector(plan);
  StreamServerConfig sc;
  sc.ingest_workers = 2;
  sc.detect_workers = 2;
  sc.fault_injector = &injector;
  StreamServer server(system, sc);

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const std::vector<StreamResult> results =
      server.serve_sequences(four_streams(4));
  tracer.set_enabled(false);
  const std::vector<obs::FrameTrace> traces =
      obs::assemble_frame_traces(tracer.drain());
  std::map<std::pair<std::int64_t, std::int64_t>, const obs::FrameTrace*>
      by_frame;
  for (const obs::FrameTrace& t : traces)
    if (t.stream >= 0 && t.frame >= 0) by_frame[{t.stream, t.frame}] = &t;

  ASSERT_GT(results[0].coasted_frames, 0u);
  std::size_t coast_chains = 0;
  for (const StreamResult& result : results) {
    for (const core::AdaptiveFrameReport& frame : result.report.frames) {
      const auto it = by_frame.find({result.stream, frame.index});
      ASSERT_NE(it, by_frame.end())
          << "no trace for stream " << result.stream << " frame "
          << frame.index;
      const obs::FrameTrace& t = *it->second;
      EXPECT_TRUE(t.has_span("ingest_frame")) << t.trace_id;
      EXPECT_TRUE(t.has_span("control_frame")) << t.trace_id;
      EXPECT_TRUE(t.has_span("detect_frame") || t.has_span("coast_frame") ||
                  t.has_span("shed_frame") || t.has_span("drop_frame"))
          << t.trace_id;
      EXPECT_EQ(t.has_span("coast_frame"), frame.detect_coasted)
          << t.trace_id;
      EXPECT_TRUE(t.has_span("collect_report")) << t.trace_id;
      EXPECT_TRUE(t.connected()) << "trace " << t.trace_id
                                 << " has unresolvable parent links";
      if (frame.detect_coasted) ++coast_chains;
    }
  }
  EXPECT_EQ(coast_chains, results[0].coasted_frames);
}

TEST(FrameTracing, DisabledTracerRecordsNothingAndServeStillWorks) {
  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  core::AdaptiveSystem system(models, cfg);
  StreamServer server(system, {});

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(false);
  tracer.clear();
  const std::vector<StreamResult> results =
      server.serve_sequences(four_streams(3));
  ASSERT_EQ(results.size(), 4u);
  for (const StreamResult& r : results)
    EXPECT_FALSE(r.report.frames.empty());
  EXPECT_TRUE(tracer.snapshot().empty());
}

// A serve's tail sampler counts that serve's frames and nothing else: the
// previous serve's spans are still in the tracer's rings (no clear()
// between the two), and so are the ingest spans of each stream's final,
// empty pull.
TEST(FrameTracing, ConsecutiveServesIngestOnlyTheirOwnFrames) {
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  core::AdaptiveSystem system(test_support::tiny_models(), cfg);
  StreamServer server(system, {});

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const auto frames_of = [](const std::vector<StreamResult>& results) {
    std::uint64_t n = 0;
    for (const StreamResult& r : results) n += r.report.frames.size();
    return n;
  };
  const std::vector<StreamResult> first =
      server.serve_sequences(four_streams(3));
  ASSERT_NE(server.obs_view().sampler, nullptr);
  EXPECT_EQ(server.obs_view().sampler->frames_seen(), frames_of(first));
  const std::vector<StreamResult> second =
      server.serve_sequences(four_streams(2));
  tracer.set_enabled(false);
  tracer.clear();
  ASSERT_NE(frames_of(first), frames_of(second));
  EXPECT_EQ(server.obs_view().sampler->frames_seen(), frames_of(second));
}

}  // namespace
}  // namespace avd::runtime
