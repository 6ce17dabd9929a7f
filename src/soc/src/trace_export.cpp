#include "avd/soc/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "avd/obs/json.hpp"

namespace avd::soc {
namespace {

using obs::json::escape;

// A comma-separating JSON array writer.
class EventArray {
 public:
  explicit EventArray(std::ostringstream& os) : os_(os) {}
  std::ostringstream& next() {
    if (!first_) os_ << ',';
    first_ = false;
    return os_;
  }

 private:
  std::ostringstream& os_;
  bool first_ = true;
};

void emit_thread_name(EventArray& array, int pid, int tid,
                      const std::string& name) {
  array.next() << R"({"name":"thread_name","ph":"M","pid":)" << pid
               << ",\"tid\":" << tid << R"(,"args":{"name":")" << escape(name)
               << "\"}}";
}

void emit_process_name(EventArray& array, int pid, const std::string& name) {
  array.next() << R"({"name":"process_name","ph":"M","pid":)" << pid
               << R"(,"tid":0,"args":{"name":")" << escape(name) << "\"}}";
}

void emit_instants(EventArray& array, const std::vector<Event>& events,
                   int pid) {
  // Stable thread ids per source, in order of first appearance.
  std::map<std::string, int> tid_of;
  int next_tid = 1;
  for (const Event& e : events)
    if (tid_of.emplace(e.source, next_tid).second) ++next_tid;

  for (const auto& [source, tid] : tid_of)
    emit_thread_name(array, pid, tid, source);
  // Chrome trace timestamps are microseconds; EventLog times are ps.
  for (const Event& e : events) {
    array.next() << R"({"name":")" << escape(e.message)
                 << R"(","ph":"i","s":"t","pid":)" << pid
                 << ",\"tid\":" << tid_of[e.source]
                 << ",\"ts\":" << (e.time.ps / 1000000ull) << '}';
  }
}

void format_us(char (&buf)[32], std::uint64_t ns) {
  // Microsecond timestamps with nanosecond precision kept as fractions.
  std::snprintf(buf, sizeof buf, "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000u),
                static_cast<unsigned>(ns % 1000u));
}

void emit_spans(EventArray& array, std::span<const obs::SpanRecord> spans,
                int pid) {
  // One row per (source, recording thread) so concurrent spans of the same
  // source (e.g. two detect workers) don't overlap on a single track.
  std::map<std::pair<std::string, int>, int> tid_of;
  int next_tid = 1;
  for (const obs::SpanRecord& s : spans) {
    const auto key = std::make_pair(std::string(s.source), s.thread);
    if (tid_of.emplace(key, next_tid).second) ++next_tid;
  }
  for (const auto& [key, tid] : tid_of)
    emit_thread_name(array, pid, tid, key.first);

  char ts[32], dur[32];
  for (const obs::SpanRecord& s : spans) {
    const auto key = std::make_pair(std::string(s.source), s.thread);
    format_us(ts, s.begin_ns);
    format_us(dur, s.end_ns >= s.begin_ns ? s.end_ns - s.begin_ns : 0);
    std::ostringstream& os = array.next();
    os << R"({"name":")" << escape(s.name) << R"(","ph":"X","pid":)" << pid
       << ",\"tid\":" << tid_of[key] << ",\"ts\":" << ts
       << ",\"dur\":" << dur;
    // Trace linkage and numeric attributes ride in "args" so tooling (and
    // the flow-linkage tests) can reassemble frame chains from the export.
    if (s.trace_id != 0 || s.arg_count > 0) {
      os << ",\"args\":{";
      bool first = true;
      if (s.trace_id != 0) {
        os << "\"trace_id\":" << s.trace_id << ",\"span_id\":" << s.span_id
           << ",\"parent_span_id\":" << s.parent_span_id;
        first = false;
      }
      for (int i = 0; i < s.arg_count; ++i) {
        if (!first) os << ',';
        first = false;
        os << '"' << escape(s.args[i].name) << "\":" << s.args[i].value;
      }
      os << '}';
    }
    os << '}';
  }
}

// Flow events ("s"/"t"/"f" with id = trace_id) draw one arc per frame
// across the threads it crossed. Only *hop* spans anchor the arc — spans
// whose parent is absent or recorded on a different thread — so a frame
// renders as ingest → control → detect → report without arcs doubling into
// every nested span on the same track.
void emit_flows(EventArray& array, std::span<const obs::SpanRecord> spans,
                int pid) {
  std::map<std::pair<std::string, int>, int> tid_of;
  int next_tid = 1;
  for (const obs::SpanRecord& s : spans) {
    const auto key = std::make_pair(std::string(s.source), s.thread);
    if (tid_of.emplace(key, next_tid).second) ++next_tid;
  }

  std::map<std::uint64_t, int> thread_of_span;  // span_id -> recording thread
  for (const obs::SpanRecord& s : spans)
    if (s.span_id != 0) thread_of_span[s.span_id] = s.thread;

  std::map<std::uint64_t, std::vector<const obs::SpanRecord*>> hops_of;
  for (const obs::SpanRecord& s : spans) {
    if (s.trace_id == 0) continue;
    const auto parent = thread_of_span.find(s.parent_span_id);
    const bool is_hop =
        s.parent_span_id == 0 || parent == thread_of_span.end() ||
        parent->second != s.thread;
    if (is_hop) hops_of[s.trace_id].push_back(&s);
  }

  char ts[32];
  for (auto& [trace_id, hops] : hops_of) {
    if (hops.size() < 2) continue;  // an arc needs two ends
    std::sort(hops.begin(), hops.end(),
              [](const obs::SpanRecord* a, const obs::SpanRecord* b) {
                return a->begin_ns != b->begin_ns ? a->begin_ns < b->begin_ns
                                                  : a->end_ns < b->end_ns;
              });
    for (std::size_t i = 0; i < hops.size(); ++i) {
      const obs::SpanRecord& s = *hops[i];
      const auto key = std::make_pair(std::string(s.source), s.thread);
      const char* ph = i == 0 ? "s" : (i + 1 == hops.size() ? "f" : "t");
      format_us(ts, s.begin_ns);
      std::ostringstream& os = array.next();
      os << R"({"name":"frame","cat":"frame","ph":")" << ph
         << R"(","id":)" << trace_id << ",\"pid\":" << pid
         << ",\"tid\":" << tid_of[key] << ",\"ts\":" << ts;
      if (*ph == 'f') os << R"(,"bp":"e")";
      os << '}';
    }
  }
}

}  // namespace

std::string to_chrome_trace(const EventLog& log) {
  const std::vector<Event> events = log.events();
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  EventArray array(os);
  emit_instants(array, events, 1);
  os << "]}";
  return os.str();
}

std::string to_chrome_trace(const EventLog& log,
                            std::span<const obs::SpanRecord> spans,
                            const MergedTraceOptions& options) {
  const std::vector<Event> events = log.events();
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  EventArray array(os);
  emit_process_name(array, options.span_pid, "spans (wall clock)");
  emit_process_name(array, options.event_pid, "events");
  emit_spans(array, spans, options.span_pid);
  emit_flows(array, spans, options.span_pid);
  emit_instants(array, events, options.event_pid);
  os << "]}";
  return os.str();
}

namespace {

void write_document(const std::string& document, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_chrome_trace: cannot open " + path);
  out << document;
  if (!out) throw std::runtime_error("write_chrome_trace: write failed");
}

}  // namespace

void write_chrome_trace(const EventLog& log, const std::string& path) {
  write_document(to_chrome_trace(log), path);
}

void write_chrome_trace(const EventLog& log,
                        std::span<const obs::SpanRecord> spans,
                        const std::string& path,
                        const MergedTraceOptions& options) {
  write_document(to_chrome_trace(log, spans, options), path);
}

}  // namespace avd::soc
