#include "avd/obs/slo.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace avd::obs {
namespace {

HealthState worse(HealthState a, HealthState b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

HealthState one_step_better(HealthState s) {
  switch (s) {
    case HealthState::Unhealthy: return HealthState::Degraded;
    case HealthState::Degraded: return HealthState::Healthy;
    case HealthState::Healthy: return HealthState::Healthy;
  }
  return HealthState::Healthy;
}

}  // namespace

const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::Healthy: return "HEALTHY";
    case HealthState::Degraded: return "DEGRADED";
    case HealthState::Unhealthy: return "UNHEALTHY";
  }
  return "?";
}

SloMonitor::SloMonitor(std::string entity, std::vector<SloRule> rules,
                       SloConfig config)
    : entity_(std::move(entity)),
      rules_(std::move(rules)),
      config_(config) {
  config_.breaches_to_worsen = std::max(1, config_.breaches_to_worsen);
  config_.clears_to_recover = std::max(1, config_.clears_to_recover);
}

void SloMonitor::set_callback(Callback cb) {
  std::lock_guard<std::mutex> lock(mutex_);
  callback_ = std::move(cb);
}

HealthState SloMonitor::observe(const TelemetrySample& prev,
                                const TelemetrySample& cur) {
  // Evaluate rules outside the lock; counter lookups only touch the two
  // immutable samples.
  std::vector<SloRuleValue> values;
  values.reserve(rules_.size());
  HealthState observed = HealthState::Healthy;
  const SloRuleValue* worst = nullptr;
  for (const SloRule& rule : rules_) {
    SloRuleValue v;
    v.rule = rule.name;
    const std::uint64_t bad_delta = cur.metrics.counter(rule.bad_counter) -
                                    prev.metrics.counter(rule.bad_counter);
    if (rule.total_counter.empty()) {
      v.value = static_cast<double>(bad_delta);
      v.evaluated = true;
    } else {
      const std::uint64_t total_delta =
          cur.metrics.counter(rule.total_counter) -
          prev.metrics.counter(rule.total_counter);
      if (total_delta < rule.min_total) {
        values.push_back(std::move(v));  // skipped: no evidence this window
        continue;
      }
      v.value = static_cast<double>(bad_delta) / static_cast<double>(total_delta);
      v.evaluated = true;
    }
    if (v.value > rule.unhealthy_above) v.observed = HealthState::Unhealthy;
    else if (v.value > rule.degraded_above) v.observed = HealthState::Degraded;
    observed = worse(observed, v.observed);
    values.push_back(std::move(v));
    if (values.back().observed == observed &&
        observed != HealthState::Healthy)
      worst = &values.back();
  }

  HealthTransition transition;
  bool fired = false;
  Callback callback_copy;
  HealthState after;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    last_values_ = values;
    const HealthState before = state_;
    if (static_cast<int>(observed) > static_cast<int>(state_)) {
      clear_streak_ = 0;
      if (++breach_streak_ >= config_.breaches_to_worsen) {
        state_ = observed;  // worsening jumps straight to the observed level
        breach_streak_ = 0;
      }
    } else if (static_cast<int>(observed) < static_cast<int>(state_)) {
      breach_streak_ = 0;
      if (++clear_streak_ >= config_.clears_to_recover) {
        state_ = one_step_better(state_);  // recovery is gradual
        clear_streak_ = 0;
      }
    } else {
      breach_streak_ = 0;
      clear_streak_ = 0;
    }
    if (state_ != before) {
      transition.entity = entity_;
      transition.from = before;
      transition.to = state_;
      transition.t_ns = cur.t_ns;
      std::ostringstream os;
      if (worst != nullptr)
        os << worst->rule << '=' << worst->value;
      else
        os << "all rules clear";
      transition.reason = os.str();
      transitions_.push_back(transition);
      callback_copy = callback_;
      fired = true;
    }
    after = state_;
  }
  if (fired && callback_copy) callback_copy(transition);
  return after;
}

HealthState SloMonitor::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

std::vector<SloRuleValue> SloMonitor::last_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_values_;
}

std::vector<HealthTransition> SloMonitor::transitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transitions_;
}

std::vector<SloRule> standard_stream_rules_labeled(
    const Labels& labels, double deadline_miss_degraded,
    double deadline_miss_unhealthy, double drop_rate_degraded,
    double drop_rate_unhealthy) {
  const auto rule = [&labels](const char* name, const char* bad,
                              const char* total, double degraded,
                              double unhealthy) {
    SloRule r;
    r.name = name;
    r.bad_counter = labeled_name(bad, labels);
    r.total_counter = labeled_name(total, labels);
    r.degraded_above = degraded;
    r.unhealthy_above = unhealthy;
    return r;
  };
  return {
      rule("frame_deadline", "runtime.deadline_miss", "runtime.frames",
           deadline_miss_degraded, deadline_miss_unhealthy),
      rule("queue_drops", "runtime.backpressure_drops", "runtime.frames",
           drop_rate_degraded, drop_rate_unhealthy),
      // The paper's contract: one reconfiguration costs exactly one frame.
      // More than one lost frame per reconfiguration window is already
      // off-contract; more than two is unhealthy.
      rule("reconfig_frame_loss", "runtime.reconfig_drops", "runtime.reconfigs",
           1.0, 2.0),
  };
}

HealthState worst_of(std::span<const HealthState> states) {
  HealthState out = HealthState::Healthy;
  for (const HealthState s : states) out = worse(out, s);
  return out;
}

}  // namespace avd::obs
