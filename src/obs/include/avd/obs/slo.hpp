// SLO health monitoring over the telemetry time series.
//
// A SloRule is declarative: "the ratio of counter A's growth to counter B's
// growth over one telemetry window must stay below X (degraded) / Y
// (unhealthy)". Rules are evaluated on consecutive TelemetrySample pairs —
// i.e. on *rates*, so a registry that accumulates across runs still
// evaluates correctly — and drive a three-state health machine
// (HEALTHY / DEGRADED / UNHEALTHY) with hysteresis: worsening needs
// `breaches_to_worsen` consecutive breaching windows, recovery needs
// `clears_to_recover` consecutive clean windows and steps one level at a
// time, so a flapping metric cannot flap the health state.
//
// The paper's temporal claims map directly onto rules:
//   frame-deadline misses  — bad=deadline_miss, total=frames  (20 ms budget)
//   queue drop rate        — bad=drops,         total=frames
//   reconfig frame loss >1 — bad=reconfig_drops, total=reconfigs, limit 1.0
//
// Transitions fire a callback (on whatever thread called observe(); when
// driven by TelemetryExporter::on_sample, the exporter thread).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "avd/obs/telemetry.hpp"

namespace avd::obs {

enum class HealthState { Healthy = 0, Degraded = 1, Unhealthy = 2 };

[[nodiscard]] const char* to_string(HealthState s);

/// One declarative rule over counter growth in a telemetry window.
struct SloRule {
  std::string name;           ///< "frame_deadline", "queue_drops", ...
  std::string bad_counter;    ///< numerator counter name
  /// Denominator counter name; empty means the rule evaluates the absolute
  /// growth of bad_counter per window instead of a ratio.
  std::string total_counter;
  double degraded_above = 0.0;   ///< value > this  => at least DEGRADED
  double unhealthy_above = 1e9;  ///< value > this  => UNHEALTHY
  /// Windows whose denominator grew less than this are skipped (no events =
  /// no evidence; an idle stream is not unhealthy).
  std::uint64_t min_total = 1;
};

/// Value of one rule over the last evaluated window.
struct SloRuleValue {
  std::string rule;
  double value = 0.0;         ///< ratio (or absolute growth)
  bool evaluated = false;     ///< false when the window was skipped
  HealthState observed = HealthState::Healthy;
};

struct HealthTransition {
  std::string entity;
  HealthState from = HealthState::Healthy;
  HealthState to = HealthState::Healthy;
  std::uint64_t t_ns = 0;   ///< timestamp of the window's closing sample
  std::string reason;       ///< worst rule and its value, human-readable
};

/// Hysteresis shape of the health state machine.
struct SloConfig {
  int breaches_to_worsen = 1;  ///< consecutive breaching windows to worsen
  int clears_to_recover = 3;   ///< consecutive clean windows per step back
};

/// Health state machine for one entity (one stream), fed telemetry windows.
/// Thread-safe: observe() and the read accessors may race.
class SloMonitor {
 public:
  using Callback = std::function<void(const HealthTransition&)>;

  SloMonitor(std::string entity, std::vector<SloRule> rules,
             SloConfig config = {});

  /// Invoked on every state transition, from observe()'s calling thread.
  void set_callback(Callback cb);

  /// Evaluate every rule over the window [prev, cur] and advance the state
  /// machine. Returns the state after this observation.
  HealthState observe(const TelemetrySample& prev, const TelemetrySample& cur);

  [[nodiscard]] HealthState state() const;
  [[nodiscard]] const std::string& entity() const { return entity_; }
  /// Rule values from the most recent observe().
  [[nodiscard]] std::vector<SloRuleValue> last_values() const;
  /// Every transition so far, in order.
  [[nodiscard]] std::vector<HealthTransition> transitions() const;

 private:
  std::string entity_;
  std::vector<SloRule> rules_;
  SloConfig config_;

  mutable std::mutex mutex_;
  HealthState state_ = HealthState::Healthy;
  int breach_streak_ = 0;
  int clear_streak_ = 0;
  std::vector<SloRuleValue> last_values_;
  std::vector<HealthTransition> transitions_;
  Callback callback_;
};

/// The standard per-stream rule set the StreamServer installs, targeting the
/// paper's budgets: frame-deadline misses (vs the 20 ms / 50 fps window),
/// queue drop rate, and reconfiguration frame loss beyond the paper's
/// one-frame cost. The rules read the stream's labeled series, e.g.
/// `runtime.frames{shard="2",stream="s3"}` for `labels`
/// {{"shard","2"},{"stream","s3"}}.
[[nodiscard]] std::vector<SloRule> standard_stream_rules_labeled(
    const Labels& labels, double deadline_miss_degraded = 0.05,
    double deadline_miss_unhealthy = 0.25, double drop_rate_degraded = 0.01,
    double drop_rate_unhealthy = 0.10);

/// Fleet rollup of per-stream health: the worst state present (Healthy when
/// `states` is empty). One saturated stream therefore surfaces in the fleet
/// view no matter how many healthy neighbours it has.
[[nodiscard]] HealthState worst_of(std::span<const HealthState> states);

}  // namespace avd::obs
