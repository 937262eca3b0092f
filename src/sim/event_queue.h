// Cancellable discrete-event queue with deterministic ordering.
//
// Events at equal timestamps fire in scheduling order (FIFO by sequence
// number), which the MAC layer relies on: a frame's end-of-transmission
// event is always scheduled before any same-tick transmission start, so
// back-to-back airtime does not read as a collision.
//
// Storage is allocation-free in steady state: handlers live in a slot
// vector recycled through a free list, and the heap holds (time, id)
// pairs. An EventId packs a monotone sequence number above the slot
// index, so ids increase in scheduling order, the heap's FIFO tie-break is
// the id itself, and a slot's current id doubles as its generation: a
// stale id (fired or cancelled, its slot since reused) never matches.
//
// The heap is indexed: each slot records where its entry sits, so cancel
// removes the entry at once (the last entry fills the hole and sifts up or
// down). The heap holds exactly the pending events, and the earliest one
// is always at its root.
// Limits: 2^24 events pending at once and 2^40 schedules per queue
// (std::length_error beyond either).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/sim_time.h"

namespace mrca::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  /// Schedules `handler` at absolute time `when`; returns a cancellable id.
  EventId schedule(SimTime when, std::function<void()> handler);

  /// Cancels a pending event; cancelling an already-fired or invalid id is
  /// a harmless no-op (returns false).
  bool cancel(EventId id);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Events scheduled over the queue's lifetime (fired, cancelled or
  /// pending).
  std::uint64_t scheduled() const noexcept { return next_seq_ - 1; }

  /// Time of the earliest pending event; queue must be non-empty.
  SimTime next_time() const;

  /// Pops and runs the earliest event; returns its timestamp.
  /// Queue must be non-empty.
  SimTime run_next();

  /// Runs the earliest event if it is due at or before `end`, first
  /// setting `clock` to its timestamp so the handler observes it. Returns
  /// false, touching nothing, when no event is due.
  bool run_due(SimTime end, SimTime& clock);

  /// Id of the event whose handler is running (kInvalidEvent outside one).
  EventId running() const noexcept { return running_; }

 private:
  struct Entry {
    SimTime time;
    EventId id;
    bool before(const Entry& other) const noexcept {
      if (time != other.time) return time < other.time;
      return id < other.id;
    }
  };
  struct Slot {
    EventId id = kInvalidEvent;  ///< occupant, kInvalidEvent when free
    std::uint32_t heap_pos = 0;  ///< index of the occupant's heap entry
    std::function<void()> handler;
  };

  static constexpr int kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  static std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id & kSlotMask);
  }
  bool is_live(EventId id) const noexcept {
    return id != kInvalidEvent && slot_of(id) < slots_.size() &&
           slots_[slot_of(id)].id == id;
  }
  /// Writes `entry` at heap index `pos` and records the position.
  void place(std::size_t pos, const Entry& entry) noexcept;
  void sift_up(std::size_t pos, Entry entry) noexcept;
  void sift_down(std::size_t pos, Entry entry) noexcept;
  /// Removes the heap entry at `pos` and frees its event's slot.
  void remove_at(std::size_t pos);

  std::vector<Entry> heap_;  ///< binary min-heap on (time, id)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;  // 0 would let slot 0's first id be invalid
  EventId running_ = kInvalidEvent;
};

}  // namespace mrca::sim
