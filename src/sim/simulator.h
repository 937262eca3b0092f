// Simulation kernel: a clock plus the event queue.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "sim/sim_time.h"

namespace mrca::sim {

class Simulator {
 public:
  SimTime now() const noexcept { return now_; }

  /// Schedules at an absolute time (must be >= now).
  EventId schedule_at(SimTime when, std::function<void()> handler);

  /// Schedules `delay` ns from now (delay >= 0).
  EventId schedule_in(SimTime delay, std::function<void()> handler);

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Id of the event being dispatched (kInvalidEvent between events). Ids
  /// increase in scheduling order, so comparing a pending id with it tells
  /// whether that event runs before or after the current one when both
  /// share a timestamp.
  EventId current_event() const noexcept { return queue_.running(); }

  /// Runs every event with timestamp <= end, then advances the clock to
  /// exactly `end` (even if idle). Returns events processed.
  std::size_t run_until(SimTime end);

  /// Runs until the queue is empty.
  std::size_t run_all();

  std::size_t events_processed() const noexcept { return processed_; }
  /// Events ever scheduled; scheduled - processed - pending = cancelled.
  std::uint64_t events_scheduled() const noexcept {
    return queue_.scheduled();
  }
  std::size_t events_pending() const noexcept { return queue_.size(); }
  bool idle() const noexcept { return queue_.empty(); }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::size_t processed_ = 0;
};

}  // namespace mrca::sim
