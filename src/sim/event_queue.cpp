#include "sim/event_queue.h"

#include <limits>
#include <stdexcept>
#include <utility>

namespace mrca::sim {

EventId EventQueue::schedule(SimTime when, std::function<void()> handler) {
  if (next_seq_ >> (64 - kSlotBits) != 0) {
    throw std::length_error("EventQueue: event ids exhausted");
  }
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    if (slots_.size() > kSlotMask) {
      throw std::length_error("EventQueue: too many pending events");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].id = id;
  slots_[slot].handler = std::move(handler);
  heap_.push(Entry{when, id});
  ++live_count_;
  return id;
}

void EventQueue::release(std::uint32_t slot) {
  slots_[slot].id = kInvalidEvent;
  free_slots_.push_back(slot);
  --live_count_;
}

bool EventQueue::cancel(EventId id) {
  // Lazy deletion: the heap entry stays and is skipped when popped.
  if (!is_live(id)) return false;
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  slots_[slot].handler = nullptr;
  release(slot);
  return true;
}

void EventQueue::drop_cancelled() {
  while (!heap_.empty() && !is_live(heap_.top().id)) heap_.pop();
}

SimTime EventQueue::next_time() {
  drop_cancelled();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::next_time: queue is empty");
  }
  return heap_.top().time;
}

SimTime EventQueue::run_next() {
  SimTime when = 0;
  if (!run_due(std::numeric_limits<SimTime>::max(), when)) {
    throw std::logic_error("EventQueue::run_next: queue is empty");
  }
  return when;
}

bool EventQueue::run_due(SimTime end, SimTime& clock) {
  drop_cancelled();
  if (heap_.empty() || heap_.top().time > end) return false;
  const Entry entry = heap_.top();
  heap_.pop();
  const auto slot = static_cast<std::uint32_t>(entry.id & kSlotMask);
  // Move the handler out before running it: it may schedule, which can
  // reuse this slot or grow the slot vector.
  std::function<void()> handler = std::move(slots_[slot].handler);
  release(slot);
  clock = entry.time;
  running_ = entry.id;
  handler();
  running_ = kInvalidEvent;
  return true;
}

}  // namespace mrca::sim
