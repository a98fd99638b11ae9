// Event tracing for the MPSoC simulator: gateways and accelerator tiles
// record state transitions (admissions, reconfigurations, block
// completions, context switches) so a run can be audited or visualized.
// Opt-in: components trace only when given a TraceLog.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/ring.hpp"

namespace acc::sim {

struct TraceEvent {
  Cycle cycle = 0;
  std::string source;  // component name
  std::string event;   // e.g. "admit", "reconfig.start", "block.done"
  std::int64_t value = 0;  // event-specific payload (stream id, count, ...)
};

class TraceLog {
 public:
  /// Cap the log to avoid unbounded growth on long runs; older events are
  /// kept (the head of a run usually matters most for debugging).
  explicit TraceLog(std::size_t max_events = 1 << 20)
      : max_events_(max_events) {}

  void record(Cycle cycle, std::string_view source, std::string_view event,
              std::int64_t value = 0) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    if (events_.empty()) {
      // Amortized reservation: one up-front block absorbs the growth
      // reallocations short runs would otherwise pay on the hot path,
      // without committing the full cap (max_events_ can be huge).
      events_.reserve(std::min<std::size_t>(max_events_, kInitialReserve));
    }
    events_.push_back(TraceEvent{cycle, std::string(source),
                                 std::string(event), value});
  }

  /// Overwrite the recorded events and the drop count with `other`'s (the
  /// cap stays this log's own).
  void copy_from(const TraceLog& other) {
    events_ = other.events_;
    dropped_ = other.dropped_;
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t max_events() const { return max_events_; }
  /// True when the cap was hit: events() is a truncated view of the run.
  [[nodiscard]] bool truncated() const { return dropped_ > 0; }

  /// Events from one source, in order.
  [[nodiscard]] std::vector<TraceEvent> from(std::string_view source) const;
  /// Events of one kind, in order.
  [[nodiscard]] std::vector<TraceEvent> of(std::string_view event) const;

  /// "cycle,source,event,value" lines with a header row. A truncated log
  /// (events dropped at the cap) ends with a marker row
  /// "<last cycle>,trace,truncated,<dropped count>" so downstream tooling
  /// can tell a short run from a silently clipped one.
  [[nodiscard]] std::string to_csv() const;

 private:
  static constexpr std::size_t kInitialReserve = 4096;

  std::size_t max_events_;
  std::size_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace acc::sim
