#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace mrca::sim {
namespace {

TEST(EventQueue, EmptyByDefault) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_THROW(queue.next_time(), std::logic_error);
  EXPECT_THROW(queue.run_next(), std::logic_error);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(30, [&] { order.push_back(3); });
  queue.schedule(10, [&] { order.push_back(1); });
  queue.schedule(20, [&] { order.push_back(2); });
  while (!queue.empty()) queue.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.run_next();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, RunNextReturnsTimestamp) {
  EventQueue queue;
  queue.schedule(42, [] {});
  EXPECT_EQ(queue.next_time(), 42);
  EXPECT_EQ(queue.run_next(), 42);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.schedule(1, [&] { fired = true; });
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue queue;
  const EventId id = queue.schedule(1, [] {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(kInvalidEvent));
  EXPECT_FALSE(queue.cancel(99999));
}

TEST(EventQueue, CancelledEventsAreSkipped) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1, [&] { order.push_back(1); });
  const EventId id = queue.schedule(2, [&] { order.push_back(2); });
  queue.schedule(3, [&] { order.push_back(3); });
  queue.cancel(id);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.run_next(), 1);
  EXPECT_EQ(queue.next_time(), 3);
  queue.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue queue;
  std::vector<SimTime> fired;
  std::function<void(SimTime)> chain = [&](SimTime t) {
    fired.push_back(t);
    if (t < 5) {
      queue.schedule(t + 1, [&chain, t] { chain(t + 1); });
    }
  };
  queue.schedule(1, [&chain] { chain(1); });
  while (!queue.empty()) queue.run_next();
  EXPECT_EQ(fired, (std::vector<SimTime>{1, 2, 3, 4, 5}));
}

TEST(EventQueue, EventCanCancelAnotherEvent) {
  EventQueue queue;
  bool second_fired = false;
  EventId second = kInvalidEvent;
  second = queue.schedule(10, [&] { second_fired = true; });
  queue.schedule(5, [&] { queue.cancel(second); });
  while (!queue.empty()) queue.run_next();
  EXPECT_FALSE(second_fired);
}

TEST(EventQueue, StaleIdsCannotCancelTheirSlotsNextOccupant) {
  EventQueue queue;
  bool fired_second = false;
  bool fired_third = false;
  // A fired id: its slot is free again once the event has run.
  const EventId fired = queue.schedule(1, [] {});
  queue.run_next();
  const EventId second = queue.schedule(2, [&] { fired_second = true; });
  EXPECT_FALSE(queue.cancel(fired));
  // A cancelled id, whose slot the next schedule reuses.
  const EventId cancelled = queue.schedule(3, [] {});
  EXPECT_TRUE(queue.cancel(cancelled));
  const EventId third = queue.schedule(4, [&] { fired_third = true; });
  EXPECT_FALSE(queue.cancel(cancelled));
  EXPECT_NE(second, fired);
  EXPECT_NE(third, cancelled);
  EXPECT_EQ(queue.size(), 2u);
  while (!queue.empty()) queue.run_next();
  EXPECT_TRUE(fired_second);
  EXPECT_TRUE(fired_third);
  EXPECT_FALSE(queue.cancel(second));
  EXPECT_FALSE(queue.cancel(third));
}

TEST(EventQueue, IdsIncreaseInSchedulingOrder) {
  // Slots are recycled in LIFO order, so ids that only encoded the slot
  // would go down; the sequence part keeps them strictly increasing.
  EventQueue queue;
  std::vector<EventId> ids;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) {
      ids.push_back(queue.schedule(round * 10 + 4 - i, [] {}));
    }
    queue.cancel(ids[ids.size() - 2]);
    queue.run_next();
    queue.run_next();
  }
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LT(ids[i - 1], ids[i]) << "at " << i;
  }
}

TEST(EventQueue, SizeTracksScheduleCancelAndRun) {
  EventQueue queue;
  std::vector<EventId> pending;
  std::size_t expected = 0;
  int ran = 0;
  for (int step = 0; step < 200; ++step) {
    switch (step % 5) {
      case 0:
      case 1:
      case 3:
        pending.push_back(queue.schedule(step, [&ran] { ++ran; }));
        ++expected;
        break;
      case 2:
        // Cancel the oldest id still listed; it may have fired already.
        if (queue.cancel(pending.front())) --expected;
        pending.erase(pending.begin());
        break;
      case 4:
        queue.run_next();
        --expected;
        break;
    }
    ASSERT_EQ(queue.size(), expected) << "step " << step;
    ASSERT_EQ(queue.empty(), expected == 0);
  }
  while (!queue.empty()) {
    queue.run_next();
    --expected;
  }
  EXPECT_EQ(expected, 0u);
  EXPECT_GT(ran, 0);
}

TEST(EventQueue, RunDueStopsAtTheHorizon) {
  EventQueue queue;
  queue.schedule(5, [] {});
  queue.schedule(7, [] {});
  SimTime clock = 0;
  EXPECT_TRUE(queue.run_due(5, clock));
  EXPECT_EQ(clock, 5);
  EXPECT_FALSE(queue.run_due(6, clock));
  EXPECT_EQ(clock, 5);
  EXPECT_TRUE(queue.run_due(7, clock));
  EXPECT_EQ(clock, 7);
  EXPECT_FALSE(queue.run_due(100, clock));
}

TEST(EventQueue, RunningIdIsTheDispatchedEvent) {
  EventQueue queue;
  EventId seen = kInvalidEvent;
  const EventId id = queue.schedule(1, [&] { seen = queue.running(); });
  EXPECT_EQ(queue.running(), kInvalidEvent);
  queue.run_next();
  EXPECT_EQ(seen, id);
  EXPECT_EQ(queue.running(), kInvalidEvent);
}

// Drives an EventQueue and a reference std::set of (time, id) with the
// same random operations and checks that they agree after every one.
class QueueDifferential {
 public:
  explicit QueueDifferential(std::uint64_t seed) : rng_(seed) {}

  void run(int steps) {
    for (int step = 0; step < steps && !::testing::Test::HasFailure();
         ++step) {
      const std::uint64_t op = rng_.next_below(10);
      if (op < 4) {
        schedule();
      } else if (op < 6) {
        cancel();
      } else {
        run_due();
      }
      check_state();
    }
    while (!reference_.empty() && !::testing::Test::HasFailure()) {
      run_due(reference_.rbegin()->first);
    }
    check_state();
  }

 private:
  // Few distinct offsets, so many events share a timestamp.
  SimTime draw_time() {
    return clock_ + static_cast<SimTime>(rng_.next_below(6));
  }

  void schedule() {
    const SimTime when = draw_time();
    const EventId id = queue_.schedule(when, [this] { handle(); });
    EXPECT_TRUE(live_.emplace(id, when).second) << "id reused: " << id;
    reference_.emplace(when, id);
    issued_.push_back(id);
  }

  // Live, fired, already-cancelled or stale ids, or ones never issued.
  EventId draw_id() {
    if (issued_.empty() || rng_.next_below(8) == 0) {
      return rng_.next_below(2) == 0 ? kInvalidEvent : rng_.next_u64();
    }
    return issued_[rng_.next_below(issued_.size())];
  }

  void cancel() {
    const EventId id = draw_id();
    const auto it = live_.find(id);
    const bool expected = it != live_.end();
    if (expected) {
      reference_.erase({it->second, id});
      live_.erase(it);
    }
    EXPECT_EQ(queue_.cancel(id), expected) << "cancel " << id;
  }

  void run_due() {
    run_due(clock_ + static_cast<SimTime>(rng_.next_below(4)) - 1);
  }

  void run_due(SimTime horizon) {
    expected_ = kInvalidEvent;
    SimTime expected_time = clock_;
    if (!reference_.empty() && reference_.begin()->first <= horizon) {
      std::tie(expected_time, expected_) = *reference_.begin();
      reference_.erase(reference_.begin());
      live_.erase(expected_);
    }
    SimTime clock = clock_;
    const std::size_t before = fired_;
    EXPECT_EQ(queue_.run_due(horizon, clock), expected_ != kInvalidEvent);
    EXPECT_EQ(fired_, before + (expected_ != kInvalidEvent ? 1 : 0));
    EXPECT_EQ(clock, expected_time);
    clock_ = clock;
  }

  // A dispatched handler: checks it is the expected event, then maybe
  // schedules and cancels in turn.
  void handle() {
    ++fired_;
    EXPECT_EQ(queue_.running(), expected_) << "dispatch order";
    EXPECT_FALSE(queue_.cancel(queue_.running())) << "cancelled itself";
    const std::uint64_t action = rng_.next_below(4);
    if (action & 1) schedule();
    if (action & 2) cancel();
  }

  void check_state() {
    EXPECT_EQ(queue_.size(), reference_.size());
    EXPECT_EQ(queue_.empty(), reference_.empty());
    EXPECT_EQ(queue_.scheduled(), issued_.size());
    if (reference_.empty()) {
      EXPECT_THROW(queue_.next_time(), std::logic_error);
    } else {
      EXPECT_EQ(queue_.next_time(), reference_.begin()->first);
    }
  }

  Rng rng_;
  EventQueue queue_;
  std::set<std::pair<SimTime, EventId>> reference_;
  std::map<EventId, SimTime> live_;
  std::vector<EventId> issued_;
  EventId expected_ = kInvalidEvent;
  SimTime clock_ = 0;
  std::size_t fired_ = 0;
};

TEST(EventQueue, RandomOperationsMatchAReferenceSet) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    QueueDifferential(seed).run(2000);
    if (HasFailure()) return;
  }
}

TEST(SimTimeConversions, RoundTrip) {
  EXPECT_EQ(from_seconds(1.0), kNanosPerSecond);
  EXPECT_EQ(from_seconds(50e-6), 50000);
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(0.125)), 0.125);
  EXPECT_EQ(from_micros(20.0), 20000);
}

}  // namespace
}  // namespace mrca::sim
