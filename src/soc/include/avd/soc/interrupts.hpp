// PL-to-PS interrupt model (paper Fig. 6).
//
// "DMA cores and detection modules generate interrupt requests and inform PS
// of their completed assigned task as part of the communication between PL
// and PS."
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "avd/soc/event_log.hpp"

namespace avd::soc {

/// One IRQ line from a PL component into the PS GIC.
struct IrqLine {
  int id = 0;
  std::string source;
  bool masked = false;
  bool pending = false;
  TimePoint raised_at;
  std::uint64_t total_raised = 0;
};

/// Interrupt controller: lines are registered once, raised by components,
/// and serviced by the PS with a fixed entry latency.
class InterruptController {
 public:
  /// `service_latency`: time from raise to handler entry (GIC + context).
  explicit InterruptController(Duration service_latency = Duration::from_ns(500))
      : service_latency_(service_latency) {}

  /// Register a line; returns its id.
  int add_line(std::string source);

  void mask(int id, bool masked);
  [[nodiscard]] bool is_pending(int id) const { return line(id).pending; }
  [[nodiscard]] std::uint64_t raise_count(int id) const {
    return line(id).total_raised;
  }

  /// Assert a line at `now`. Masked lines record the raise but do not
  /// become pending.
  void raise(int id, TimePoint now, EventLog* log = nullptr);

  /// Service (acknowledge) one pending line; returns the handler-entry time
  /// or nullopt-like {false, ...} when nothing is pending.
  struct Service {
    bool handled = false;
    int id = -1;
    std::string source;
    TimePoint handler_entry;
  };
  Service service_next(TimePoint now);

  /// Pending line count.
  [[nodiscard]] int pending_count() const;

 private:
  [[nodiscard]] const IrqLine& line(int id) const;
  [[nodiscard]] IrqLine& line(int id);

  Duration service_latency_;
  std::vector<IrqLine> lines_;
};

}  // namespace avd::soc
