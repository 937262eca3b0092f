#include "sim/medium.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace mrca::sim {
namespace {

/// Records carrier-sense transitions and transmission outcomes.
class Probe final : public MediumListener, public TxListener {
 public:
  void on_busy_start() override { transitions.push_back("busy"); }
  void on_idle_start() override { transitions.push_back("idle"); }
  void on_transmission_end(bool success) override {
    outcomes.push_back(success);
  }
  std::vector<std::string> transitions;
  std::vector<bool> outcomes;
};

TEST(Medium, AttachRejectsNull) {
  Simulator sim;
  Medium medium(sim);
  EXPECT_THROW(medium.attach(nullptr), std::invalid_argument);
}

TEST(Medium, RejectsNonPositiveDuration) {
  Simulator sim;
  Medium medium(sim);
  Probe probe;
  EXPECT_THROW(medium.start_transmission(&probe, 0), std::invalid_argument);
  EXPECT_THROW(medium.start_transmission(&probe, -5), std::invalid_argument);
}

TEST(Medium, SoloTransmissionSucceeds) {
  Simulator sim;
  Medium medium(sim);
  Probe probe;
  medium.attach(&probe);
  EXPECT_TRUE(medium.is_idle());
  medium.start_transmission(&probe, 100);
  EXPECT_FALSE(medium.is_idle());
  sim.run_until(1000);
  EXPECT_TRUE(medium.is_idle());
  ASSERT_EQ(probe.outcomes.size(), 1u);
  EXPECT_TRUE(probe.outcomes[0]);
  EXPECT_EQ(probe.transitions,
            (std::vector<std::string>{"busy", "idle"}));
}

TEST(Medium, BookedSystemFrameIsRememberedUntilItStarts) {
  Simulator sim;
  Medium medium(sim);
  Probe probe;
  medium.attach(&probe);
  medium.book_system_frame(10, 5);
  medium.book_system_frame(30, 5);
  EXPECT_TRUE(medium.is_idle());
  EXPECT_FALSE(medium.booked_before(10));  // strictly before only
  EXPECT_TRUE(medium.booked_before(11));
  sim.run_until(10);
  EXPECT_FALSE(medium.is_idle());
  EXPECT_FALSE(medium.booked_before(30));
  EXPECT_TRUE(medium.booked_before(31));
  sim.run_until(100);
  EXPECT_FALSE(medium.booked_before(1000));
  EXPECT_EQ(medium.transmissions_started(), 2u);
  EXPECT_TRUE(probe.outcomes.empty());  // system frames report to no one
  EXPECT_EQ(probe.transitions,
            (std::vector<std::string>{"busy", "idle", "busy", "idle"}));
}

TEST(Medium, OverlapCollidesBothFrames) {
  Simulator sim;
  Medium medium(sim);
  Probe a;
  Probe b;
  medium.start_transmission(&a, 100);
  sim.run_until(50);
  medium.start_transmission(&b, 100);  // overlaps a's [0,100)
  sim.run_until(1000);
  ASSERT_EQ(a.outcomes.size(), 1u);
  ASSERT_EQ(b.outcomes.size(), 1u);
  EXPECT_FALSE(a.outcomes[0]);
  EXPECT_FALSE(b.outcomes[0]);
  EXPECT_EQ(medium.collisions_observed(), 2u);
}

TEST(Medium, SimultaneousStartsCollide) {
  Simulator sim;
  Medium medium(sim);
  Probe a;
  Probe b;
  medium.start_transmission(&a, 100);
  medium.start_transmission(&b, 100);
  sim.run_until(1000);
  EXPECT_FALSE(a.outcomes[0]);
  EXPECT_FALSE(b.outcomes[0]);
}

TEST(Medium, LateJoinerDamagesEarlierFrame) {
  // A frame that was clean for most of its airtime is still lost if any
  // overlap occurs before it ends (no capture effect).
  Simulator sim;
  Medium medium(sim);
  Probe a;
  Probe b;
  medium.start_transmission(&a, 100);
  sim.run_until(99);
  medium.start_transmission(&b, 10);
  sim.run_until(1000);
  EXPECT_FALSE(a.outcomes[0]);
  EXPECT_FALSE(b.outcomes[0]);
}

TEST(Medium, BackToBackFramesDoNotCollide) {
  // Frame B starts exactly when frame A ends: the end event was scheduled
  // first, so same-tick ordering resolves to A-then-B and both succeed.
  Simulator sim;
  Medium medium(sim);
  Probe a;
  Probe b;
  medium.start_transmission(&a, 100);
  sim.schedule_at(100, [&] { medium.start_transmission(&b, 50); });
  sim.run_until(1000);
  ASSERT_EQ(a.outcomes.size(), 1u);
  ASSERT_EQ(b.outcomes.size(), 1u);
  EXPECT_TRUE(a.outcomes[0]);
  EXPECT_TRUE(b.outcomes[0]);
  EXPECT_EQ(medium.collisions_observed(), 0u);
}

TEST(Medium, SystemTransmissionHasNoOwnerCallback) {
  Simulator sim;
  Medium medium(sim);
  Probe listener;
  medium.attach(&listener);
  medium.start_transmission(nullptr, 100);  // e.g. an ACK
  sim.run_until(1000);
  EXPECT_TRUE(listener.outcomes.empty());
  EXPECT_EQ(listener.transitions,
            (std::vector<std::string>{"busy", "idle"}));
}

TEST(Medium, SystemTransmissionStillCollides) {
  Simulator sim;
  Medium medium(sim);
  Probe a;
  medium.start_transmission(&a, 100);
  medium.start_transmission(nullptr, 100);
  sim.run_until(1000);
  EXPECT_FALSE(a.outcomes[0]);
}

TEST(Medium, BusyIdleTransitionsOncePerBurst) {
  // Two overlapping frames produce exactly one busy->idle cycle.
  Simulator sim;
  Medium medium(sim);
  Probe listener;
  medium.attach(&listener);
  Probe a;
  Probe b;
  medium.start_transmission(&a, 100);
  sim.run_until(30);
  medium.start_transmission(&b, 100);  // burst extends to t=130
  sim.run_until(1000);
  EXPECT_EQ(listener.transitions,
            (std::vector<std::string>{"busy", "idle"}));
}

TEST(Medium, BusyFractionTracksAirtime) {
  Simulator sim;
  Medium medium(sim);
  Probe a;
  // Busy [0, 250) out of [0, 1000): fraction 0.25.
  medium.start_transmission(&a, 250);
  sim.run_until(1000);
  EXPECT_NEAR(medium.busy_fraction(sim.now()), 0.25, 1e-9);
}

TEST(Medium, CountsTransmissions) {
  Simulator sim;
  Medium medium(sim);
  Probe a;
  medium.start_transmission(&a, 10);
  sim.run_until(100);
  medium.start_transmission(&a, 10);
  sim.run_until(200);
  EXPECT_EQ(medium.transmissions_started(), 2u);
}

}  // namespace
}  // namespace mrca::sim
