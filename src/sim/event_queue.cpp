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
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{when, id});
  return id;
}

void EventQueue::place(std::size_t pos, const Entry& entry) noexcept {
  heap_[pos] = entry;
  slots_[slot_of(entry.id)].heap_pos = static_cast<std::uint32_t>(pos);
}

// Both sifts move a hole from `pos` and drop `entry` where it belongs.
void EventQueue::sift_up(std::size_t pos, Entry entry) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!entry.before(heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void EventQueue::sift_down(std::size_t pos, Entry entry) noexcept {
  const std::size_t n = heap_.size();
  for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
    if (!heap_[child].before(entry)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, entry);
}

void EventQueue::remove_at(std::size_t pos) {
  const std::uint32_t slot = slot_of(heap_[pos].id);
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    if (pos > 0 && last.before(heap_[(pos - 1) / 2])) {
      sift_up(pos, last);
    } else {
      sift_down(pos, last);
    }
  }
  slots_[slot].id = kInvalidEvent;
  free_slots_.push_back(slot);
}

bool EventQueue::cancel(EventId id) {
  if (!is_live(id)) return false;
  slots_[slot_of(id)].handler = nullptr;
  remove_at(slots_[slot_of(id)].heap_pos);
  return true;
}

SimTime EventQueue::next_time() const {
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::next_time: queue is empty");
  }
  return heap_.front().time;
}

SimTime EventQueue::run_next() {
  SimTime when = 0;
  if (!run_due(std::numeric_limits<SimTime>::max(), when)) {
    throw std::logic_error("EventQueue::run_next: queue is empty");
  }
  return when;
}

bool EventQueue::run_due(SimTime end, SimTime& clock) {
  if (heap_.empty() || heap_.front().time > end) return false;
  const Entry entry = heap_.front();
  // Move the handler out before running it: it may schedule, which can
  // reuse this slot or grow the slot vector.
  std::function<void()> handler = std::move(slots_[slot_of(entry.id)].handler);
  remove_at(0);
  clock = entry.time;
  running_ = entry.id;
  handler();
  running_ = kInvalidEvent;
  return true;
}

}  // namespace mrca::sim
