// SloMonitor: delta-based rule evaluation, hysteresis (worsen fast, recover
// slowly), transitions + callbacks, and the standard stream rule set.
#include "avd/obs/slo.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "avd/obs/metrics.hpp"

namespace avd::obs {
namespace {

TelemetrySample sample_at(
    std::uint64_t t_ns,
    std::vector<std::pair<std::string, std::uint64_t>> counters) {
  TelemetrySample s;
  s.t_ns = t_ns;
  s.metrics.counters = std::move(counters);
  return s;
}

SloRule rate_rule(const char* name, const char* bad, const char* total,
                  double degraded, double unhealthy) {
  SloRule r;
  r.name = name;
  r.bad_counter = bad;
  r.total_counter = total;
  r.degraded_above = degraded;
  r.unhealthy_above = unhealthy;
  return r;
}

TEST(SloMonitor, EvaluatesRatesOnCounterDeltas) {
  SloMonitor monitor("stream0",
                     {rate_rule("miss", "s.bad", "s.total", 0.10, 0.50)});
  // Absolute values are huge but the delta is clean: 5 bad / 100 total = 5 %.
  const TelemetrySample prev =
      sample_at(0, {{"s.bad", 1000}, {"s.total", 50000}});
  const TelemetrySample cur =
      sample_at(100, {{"s.bad", 1005}, {"s.total", 50100}});
  EXPECT_EQ(monitor.observe(prev, cur), HealthState::Healthy);
  const std::vector<SloRuleValue> values = monitor.last_values();
  ASSERT_EQ(values.size(), 1u);
  EXPECT_TRUE(values[0].evaluated);
  EXPECT_DOUBLE_EQ(values[0].value, 0.05);
  EXPECT_EQ(values[0].observed, HealthState::Healthy);
}

TEST(SloMonitor, ThresholdsMapToStates) {
  SloConfig config;
  config.breaches_to_worsen = 1;
  SloMonitor monitor("s", {rate_rule("r", "bad", "total", 0.10, 0.50)},
                     config);
  // 20 % bad -> degraded.
  EXPECT_EQ(monitor.observe(sample_at(0, {{"bad", 0}, {"total", 0}}),
                            sample_at(1, {{"bad", 20}, {"total", 100}})),
            HealthState::Degraded);
  // 80 % bad -> unhealthy (worsening jumps straight there).
  EXPECT_EQ(monitor.observe(sample_at(1, {{"bad", 20}, {"total", 100}}),
                            sample_at(2, {{"bad", 100}, {"total", 200}})),
            HealthState::Unhealthy);
}

TEST(SloMonitor, SmallWindowsAreSkipped) {
  SloRule rule = rate_rule("r", "bad", "total", 0.10, 0.50);
  rule.min_total = 10;
  SloMonitor monitor("s", {rule});
  // Only 3 frames this window: not enough evidence, stays healthy even
  // though 100 % of them were bad.
  EXPECT_EQ(monitor.observe(sample_at(0, {{"bad", 0}, {"total", 0}}),
                            sample_at(1, {{"bad", 3}, {"total", 3}})),
            HealthState::Healthy);
  ASSERT_EQ(monitor.last_values().size(), 1u);
  EXPECT_FALSE(monitor.last_values()[0].evaluated);
}

TEST(SloMonitor, AbsoluteRuleUsesBareDelta) {
  SloRule rule;
  rule.name = "drops";
  rule.bad_counter = "dropped";
  rule.degraded_above = 1.0;   // > 1 drop per window
  rule.unhealthy_above = 5.0;  // > 5 drops per window
  SloMonitor monitor("s", {rule});
  EXPECT_EQ(monitor.observe(sample_at(0, {{"dropped", 7}}),
                            sample_at(1, {{"dropped", 8}})),
            HealthState::Healthy);
  EXPECT_EQ(monitor.observe(sample_at(1, {{"dropped", 8}}),
                            sample_at(2, {{"dropped", 11}})),
            HealthState::Degraded);
}

TEST(SloMonitor, HysteresisWorsensAfterNBreaches) {
  SloConfig config;
  config.breaches_to_worsen = 3;
  SloMonitor monitor("s", {rate_rule("r", "bad", "total", 0.10, 0.50)},
                     config);
  const auto breach = [&](std::uint64_t i) {
    return monitor.observe(
        sample_at(i, {{"bad", 20 * i}, {"total", 100 * i}}),
        sample_at(i + 1, {{"bad", 20 * (i + 1)}, {"total", 100 * (i + 1)}}));
  };
  EXPECT_EQ(breach(1), HealthState::Healthy);  // 1st breach: not yet
  EXPECT_EQ(breach(2), HealthState::Healthy);  // 2nd breach: not yet
  EXPECT_EQ(breach(3), HealthState::Degraded); // 3rd consecutive: worsen
}

TEST(SloMonitor, RecoveryStepsOneLevelPerClearStreak) {
  SloConfig config;
  config.breaches_to_worsen = 1;
  config.clears_to_recover = 2;
  SloMonitor monitor("s", {rate_rule("r", "bad", "total", 0.10, 0.50)},
                     config);
  // Jump to unhealthy.
  EXPECT_EQ(monitor.observe(sample_at(0, {{"bad", 0}, {"total", 0}}),
                            sample_at(1, {{"bad", 80}, {"total", 100}})),
            HealthState::Unhealthy);
  // Clean windows: recovery needs 2 in a row, and steps one level at a time.
  const auto clean = [&](std::uint64_t i) {
    return monitor.observe(
        sample_at(i, {{"bad", 80}, {"total", 100 * i}}),
        sample_at(i + 1, {{"bad", 80}, {"total", 100 * (i + 1)}}));
  };
  EXPECT_EQ(clean(2), HealthState::Unhealthy);
  EXPECT_EQ(clean(3), HealthState::Degraded);   // unhealthy -> degraded
  EXPECT_EQ(clean(4), HealthState::Degraded);
  EXPECT_EQ(clean(5), HealthState::Healthy);    // degraded -> healthy
}

TEST(SloMonitor, TransitionsRecordedAndCallbackFires) {
  SloConfig config;
  config.breaches_to_worsen = 1;
  config.clears_to_recover = 1;
  SloMonitor monitor("stream3", {rate_rule("r", "bad", "total", 0.10, 0.50)},
                     config);
  std::vector<HealthTransition> seen;
  monitor.set_callback(
      [&seen](const HealthTransition& t) { seen.push_back(t); });

  monitor.observe(sample_at(0, {{"bad", 0}, {"total", 0}}),
                  sample_at(10, {{"bad", 30}, {"total", 100}}));
  monitor.observe(sample_at(10, {{"bad", 30}, {"total", 100}}),
                  sample_at(20, {{"bad", 30}, {"total", 200}}));

  const std::vector<HealthTransition> transitions = monitor.transitions();
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].entity, "stream3");
  EXPECT_EQ(transitions[0].from, HealthState::Healthy);
  EXPECT_EQ(transitions[0].to, HealthState::Degraded);
  EXPECT_EQ(transitions[0].t_ns, 10u);
  EXPECT_NE(transitions[0].reason.find("r="), std::string::npos);
  EXPECT_EQ(transitions[1].to, HealthState::Healthy);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].to, HealthState::Degraded);
  EXPECT_EQ(seen[1].to, HealthState::Healthy);
}

TEST(SloMonitor, WorstRuleWins) {
  SloMonitor monitor("s", {rate_rule("a", "a.bad", "total", 0.10, 0.50),
                           rate_rule("b", "b.bad", "total", 0.10, 0.50)});
  // Rule a healthy, rule b unhealthy -> unhealthy overall.
  EXPECT_EQ(
      monitor.observe(
          sample_at(0, {{"a.bad", 0}, {"b.bad", 0}, {"total", 0}}),
          sample_at(1, {{"a.bad", 1}, {"b.bad", 90}, {"total", 100}})),
      HealthState::Unhealthy);
}

TEST(StandardStreamRules, CoverDeadlineDropsAndReconfigLoss) {
  const std::vector<SloRule> rules =
      standard_stream_rules_labeled({{"stream", "2"}});
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].name, "frame_deadline");
  EXPECT_EQ(rules[0].bad_counter, "runtime.deadline_miss{stream=\"2\"}");
  EXPECT_EQ(rules[0].total_counter, "runtime.frames{stream=\"2\"}");
  EXPECT_EQ(rules[1].name, "queue_drops");
  EXPECT_EQ(rules[1].bad_counter, "runtime.backpressure_drops{stream=\"2\"}");
  EXPECT_EQ(rules[2].name, "reconfig_frame_loss");
  EXPECT_EQ(rules[2].bad_counter, "runtime.reconfig_drops{stream=\"2\"}");
  EXPECT_EQ(rules[2].total_counter, "runtime.reconfigs{stream=\"2\"}");
  EXPECT_EQ(rules[0].degraded_above, 0.05);
  EXPECT_EQ(rules[0].unhealthy_above, 0.25);
  EXPECT_EQ(rules[1].degraded_above, 0.01);
  EXPECT_EQ(rules[1].unhealthy_above, 0.10);
  // The paper's one-frame-per-reconfiguration contract: 1 lost frame per
  // window is fine, 2 is degraded, 3 is unhealthy.
  SloMonitor monitor("s", {rules[2]});
  EXPECT_EQ(monitor.observe(
                sample_at(0, {{"runtime.reconfig_drops{stream=\"2\"}", 0},
                              {"runtime.reconfigs{stream=\"2\"}", 0}}),
                sample_at(1, {{"runtime.reconfig_drops{stream=\"2\"}", 1},
                              {"runtime.reconfigs{stream=\"2\"}", 1}})),
            HealthState::Healthy);
  SloConfig fast;
  fast.breaches_to_worsen = 1;
  SloMonitor monitor2("s", {rules[2]}, fast);
  EXPECT_EQ(monitor2.observe(
                sample_at(0, {{"runtime.reconfig_drops{stream=\"2\"}", 0},
                              {"runtime.reconfigs{stream=\"2\"}", 0}}),
                sample_at(1, {{"runtime.reconfig_drops{stream=\"2\"}", 2},
                              {"runtime.reconfigs{stream=\"2\"}", 1}})),
            HealthState::Degraded);
}

TEST(StandardStreamRules, LabeledFormTargetsTheStreamSeries) {
  // Each counter carries the whole label set (sorted by key), exactly what
  // the sharded front door's shards publish per stream.
  const Labels labels{{"stream", "s3"}, {"shard", "2"}};
  const std::vector<SloRule> rules = standard_stream_rules_labeled(labels);
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].bad_counter,
            "runtime.deadline_miss{shard=\"2\",stream=\"s3\"}");
  const char* const bad[] = {"runtime.deadline_miss",
                             "runtime.backpressure_drops",
                             "runtime.reconfig_drops"};
  const char* const total[] = {"runtime.frames", "runtime.frames",
                               "runtime.reconfigs"};
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(rules[i].bad_counter, labeled_name(bad[i], labels));
    EXPECT_EQ(rules[i].total_counter, labeled_name(total[i], labels));
  }
  // And a monitor over a stream's rules reads that stream's series.
  SloConfig fast;
  fast.breaches_to_worsen = 1;
  const std::vector<SloRule> stream2 =
      standard_stream_rules_labeled({{"stream", "2"}});
  SloMonitor monitor("stream2", {stream2[0]}, fast);
  EXPECT_EQ(
      monitor.observe(
          sample_at(0, {{"runtime.deadline_miss{stream=\"2\"}", 0},
                        {"runtime.frames{stream=\"2\"}", 0}}),
          sample_at(1, {{"runtime.deadline_miss{stream=\"2\"}", 80},
                        {"runtime.frames{stream=\"2\"}", 100}})),
      HealthState::Unhealthy);
}

TEST(HealthState, WorstOfIsFleetRollup) {
  const HealthState h = HealthState::Healthy;
  const HealthState d = HealthState::Degraded;
  const HealthState u = HealthState::Unhealthy;
  EXPECT_EQ(worst_of({}), HealthState::Healthy);
  const std::vector<HealthState> all_healthy{h, h, h};
  EXPECT_EQ(worst_of(all_healthy), HealthState::Healthy);
  const std::vector<HealthState> one_degraded{h, d, h};
  EXPECT_EQ(worst_of(one_degraded), HealthState::Degraded);
  const std::vector<HealthState> one_unhealthy{h, d, u, h};
  EXPECT_EQ(worst_of(one_unhealthy), HealthState::Unhealthy);
}

TEST(HealthState, ToStringNames) {
  EXPECT_STREQ(to_string(HealthState::Healthy), "HEALTHY");
  EXPECT_STREQ(to_string(HealthState::Degraded), "DEGRADED");
  EXPECT_STREQ(to_string(HealthState::Unhealthy), "UNHEALTHY");
}

}  // namespace
}  // namespace avd::obs
