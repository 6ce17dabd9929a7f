// TelemetryExporter: sampling semantics, JSONL sink validity (through the
// obs::json parser), on_sample windows, and shutdown behaviour.
#include "avd/obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "avd/obs/json.hpp"

namespace avd::obs {
namespace {

std::string temp_path(const char* stem) {
  return testing::TempDir() + stem;
}

/// Every sample the exporter hands to on_sample, in order.
void record_rows(TelemetryConfig& config, std::vector<TelemetrySample>& rows) {
  config.on_sample = [&rows](const TelemetrySample*,
                             const TelemetrySample& cur) {
    rows.push_back(cur);
  };
}

TEST(TelemetryExporter, SampleNowCapturesRegistryState) {
  MetricsRegistry reg;
  reg.counter("frames").inc(5);
  std::vector<TelemetrySample> samples;
  TelemetryConfig config;
  record_rows(config, samples);
  TelemetryExporter exporter(reg, config);
  exporter.sample_now();
  reg.counter("frames").inc(2);
  exporter.sample_now();

  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].metrics.counter("frames"), 5u);
  EXPECT_EQ(samples[1].metrics.counter("frames"), 7u);
  EXPECT_LE(samples[0].t_ns, samples[1].t_ns);
  EXPECT_EQ(exporter.total_samples(), 2u);
}

TEST(TelemetryExporter, BackgroundThreadSamplesPeriodically) {
  MetricsRegistry reg;
  reg.counter("background").inc();
  std::vector<TelemetrySample> rows;
  TelemetryConfig config;
  config.period = std::chrono::milliseconds(2);
  record_rows(config, rows);
  TelemetryExporter exporter(reg, config);
  EXPECT_FALSE(exporter.running());
  exporter.start();
  EXPECT_TRUE(exporter.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  exporter.stop();
  EXPECT_FALSE(exporter.running());
  // ~15 periods elapsed plus the final stop() sample; demand a modest floor
  // so a slow CI machine still passes.
  EXPECT_GE(exporter.total_samples(), 3u);
  // stop() is idempotent, and the final sample means short runs never end
  // up empty.
  exporter.stop();
  EXPECT_FALSE(rows.empty());
  EXPECT_EQ(rows.size(), exporter.total_samples());
}

TEST(TelemetryExporter, StopWithoutStartStillWorks) {
  MetricsRegistry reg;
  TelemetryExporter exporter(reg);
  exporter.stop();  // no-op
  EXPECT_EQ(exporter.total_samples(), 0u);
}

TEST(TelemetryExporter, JsonlSinkEmitsOneValidObjectPerLine) {
  MetricsRegistry reg;
  reg.counter("rows").inc(1);
  reg.histogram("lat").record_ns(1000);
  const std::string path = temp_path("telemetry_sink.jsonl");
  std::remove(path.c_str());

  TelemetryConfig config;
  config.period = std::chrono::milliseconds(500);  // only explicit samples
  config.jsonl_path = path;
  {
    TelemetryExporter exporter(reg, config);
    exporter.start();
    exporter.sample_now();
    reg.counter("rows").inc(1);
    exporter.sample_now();
    exporter.stop();  // final sample + flush
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  ASSERT_GE(lines.size(), 3u);
  for (const std::string& line : lines) {
    const std::optional<json::Value> doc = json::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_NE(doc->find("t_ns"), nullptr);
    ASSERT_NE(doc->find("counters"), nullptr);
    EXPECT_NE(doc->find("histograms"), nullptr);
  }
  // The last line carries the final state.
  const std::optional<json::Value> last = json::parse(lines.back());
  const json::Value* rows = last->find("counters")->find("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_DOUBLE_EQ(rows->number, 2.0);
  std::remove(path.c_str());
}

TEST(TelemetryExporter, UnopenableSinkThrowsOnStart) {
  MetricsRegistry reg;
  TelemetryConfig config;
  config.jsonl_path = "/nonexistent-dir/telemetry.jsonl";
  TelemetryExporter exporter(reg, config);
  EXPECT_THROW(exporter.start(), std::runtime_error);
  EXPECT_FALSE(exporter.running());
}

TEST(TelemetryExporter, OnSampleSeesPrevAndCurWindows) {
  MetricsRegistry reg;
  Counter& c = reg.counter("windowed");
  struct Window {
    bool has_prev;
    std::uint64_t prev_value;
    std::uint64_t cur_value;
  };
  std::vector<Window> windows;
  TelemetryConfig config;
  config.on_sample = [&windows](const TelemetrySample* prev,
                                const TelemetrySample& cur) {
    windows.push_back({prev != nullptr,
                       prev != nullptr ? prev->metrics.counter("windowed") : 0,
                       cur.metrics.counter("windowed")});
  };
  TelemetryExporter exporter(reg, config);
  c.inc(10);
  exporter.sample_now();
  c.inc(5);
  exporter.sample_now();

  ASSERT_EQ(windows.size(), 2u);
  EXPECT_FALSE(windows[0].has_prev);
  EXPECT_EQ(windows[0].cur_value, 10u);
  EXPECT_TRUE(windows[1].has_prev);
  EXPECT_EQ(windows[1].prev_value, 10u);
  EXPECT_EQ(windows[1].cur_value, 15u);
}

TEST(TelemetrySample, ToJsonParsesAndCarriesTimestamp) {
  MetricsRegistry reg;
  reg.counter("x").inc(3);
  TelemetrySample sample;
  sample.t_ns = 12345;
  sample.seq = 7;
  sample.metrics = reg.snapshot();
  const std::string text = to_json(sample);
  const std::optional<json::Value> doc = json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  ASSERT_NE(doc->find("t_ns"), nullptr);
  EXPECT_DOUBLE_EQ(doc->find("t_ns")->number, 12345.0);
  ASSERT_NE(doc->find("seq"), nullptr);
  EXPECT_DOUBLE_EQ(doc->find("seq")->number, 7.0);
  EXPECT_DOUBLE_EQ(doc->find("counters")->find("x")->number, 3.0);
}

TEST(TelemetryExporter, SeqIsGaplessAcrossRingEviction) {
  // Many rows, of which the exporter keeps only the latest in memory: what
  // went to the sink is never reordered or duplicated, so the JSONL rows'
  // seq values are exactly 0..N-1 in file order.
  MetricsRegistry reg;
  Counter& c = reg.counter("tick");
  const std::string path = temp_path("telemetry_seq.jsonl");
  std::remove(path.c_str());

  TelemetryConfig config;
  config.period = std::chrono::milliseconds(500);  // only explicit samples
  config.jsonl_path = path;
  constexpr int kRows = 12;
  {
    TelemetryExporter exporter(reg, config);
    exporter.start();
    for (int i = 0; i < kRows; ++i) {
      c.inc();
      exporter.sample_now();
    }
    exporter.stop();  // appends one final row (seq == kRows)
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::uint64_t expected_seq = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    const std::optional<json::Value> doc = json::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    const json::Value* seq = doc->find("seq");
    ASSERT_NE(seq, nullptr);
    EXPECT_DOUBLE_EQ(seq->number, static_cast<double>(expected_seq));
    ++expected_seq;
  }
  // At least the explicit rows plus stop()'s final one; a slow machine may
  // add periodic rows, which must still land gaplessly in order (asserted
  // above for every row).
  EXPECT_GE(expected_seq, static_cast<std::uint64_t>(kRows) + 1);
  std::remove(path.c_str());
}

TEST(TelemetryExporter, SampleCarriesFoldedFleetView) {
  MetricsRegistry reg;
  reg.counter("frames", {{"stream", "0"}}).inc(4);
  reg.counter("frames", {{"stream", "1"}}).inc(6);
  std::vector<TelemetrySample> samples;
  TelemetryConfig config;
  record_rows(config, samples);
  TelemetryExporter exporter(reg, config);
  exporter.sample_now();
  ASSERT_EQ(samples.size(), 1u);
  // The row carries the per-stream series AND the folded fleet view.
  EXPECT_EQ(samples[0].metrics.counter("frames{stream=\"0\"}"), 4u);
  EXPECT_EQ(samples[0].metrics.counter("frames{stream=\"1\"}"), 6u);
  EXPECT_EQ(samples[0].metrics.counter("frames"), 10u);
}

}  // namespace
}  // namespace avd::obs
