#include "sim/mac_dcf.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.h"
#include "mac/bianchi.h"

namespace mrca::sim {
namespace {

DcfParameters params() { return DcfParameters::bianchi_fhss(); }

TEST(DcfChannelSim, RejectsBadInputs) {
  EXPECT_THROW(DcfChannelSim(params(), 0, 1), std::invalid_argument);
  DcfChannelSim sim(params(), 1, 1);
  EXPECT_THROW(sim.run(-1.0), std::invalid_argument);
}

TEST(DcfChannelSim, SingleStationNeverCollides) {
  DcfChannelSim sim(params(), 1, 7);
  sim.run(5.0);
  const StationStats& stats = sim.station_stats(0);
  EXPECT_GT(stats.successes, 0u);
  EXPECT_EQ(stats.collisions, 0u);
  // At most one frame can be in flight (un-adjudicated) when the run ends.
  EXPECT_LE(stats.attempts - stats.successes, 1u);
}

TEST(DcfChannelSim, SingleStationMatchesBianchiClosely) {
  // n=1 is collision-free, so the only model/simulation differences are
  // slot-boundary discretization: agreement should be within ~2%.
  DcfChannelSim sim(params(), 1, 11);
  sim.run(30.0);
  const BianchiDcfModel model(params());
  const double predicted = model.saturation_throughput(1).throughput_bps;
  EXPECT_NEAR(sim.total_throughput_bps(), predicted, 0.02 * predicted);
}

TEST(DcfChannelSim, ThroughputMatchesBianchiUnderContention) {
  const BianchiDcfModel model(params());
  for (int n : {2, 5, 10}) {
    DcfChannelSim sim(params(), n, 100 + static_cast<std::uint64_t>(n));
    sim.run(40.0);
    const double predicted = model.saturation_throughput(n).throughput_bps;
    const double measured = sim.total_throughput_bps();
    // Bianchi's chain model vs an event-driven MAC: a few percent.
    EXPECT_NEAR(measured, predicted, 0.05 * predicted) << "n=" << n;
  }
}

TEST(DcfChannelSim, CollisionProbabilityMatchesBianchi) {
  const BianchiDcfModel model(params());
  for (int n : {2, 5, 10}) {
    DcfChannelSim sim(params(), n, 17 + static_cast<std::uint64_t>(n));
    sim.run(40.0);
    const double predicted =
        model.saturation_throughput(n).collision_probability;
    EXPECT_NEAR(sim.collision_probability(), predicted,
                std::max(0.02, 0.15 * predicted))
        << "n=" << n;
  }
}

TEST(DcfChannelSim, FairShareAmongStations) {
  // The paper's equal-sharing assumption: long-run per-station throughputs
  // are near-identical (Jain index ~ 1).
  DcfChannelSim sim(params(), 6, 23);
  sim.run(60.0);
  const auto shares = sim.per_station_throughput_bps();
  EXPECT_GT(jain_fairness(shares), 0.99);
}

TEST(DcfChannelSim, ThroughputDecreasesWithStations) {
  // R(k) decreasing in the practical-CSMA regime for k >= 2 (Figure 3);
  // the n=1 -> 2 rise is covered by the Bianchi model tests.
  double previous = 1e18;
  for (int n : {2, 4, 8, 16}) {
    DcfChannelSim sim(params(), n, 31 + static_cast<std::uint64_t>(n));
    sim.run(25.0);
    const double total = sim.total_throughput_bps();
    EXPECT_LT(total, previous * 1.005) << "n=" << n;  // noise headroom
    previous = total;
  }
}

TEST(DcfChannelSim, DeterministicForEqualSeeds) {
  DcfChannelSim a(params(), 4, 99);
  DcfChannelSim b(params(), 4, 99);
  a.run(5.0);
  b.run(5.0);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(a.station_stats(s).successes, b.station_stats(s).successes);
    EXPECT_EQ(a.station_stats(s).collisions, b.station_stats(s).collisions);
    EXPECT_EQ(a.station_stats(s).attempts, b.station_stats(s).attempts);
  }
}

TEST(DcfChannelSim, DifferentSeedsDifferButAgreeOnAverage) {
  DcfChannelSim a(params(), 4, 1);
  DcfChannelSim b(params(), 4, 2);
  a.run(20.0);
  b.run(20.0);
  const double ta = a.total_throughput_bps();
  const double tb = b.total_throughput_bps();
  EXPECT_NE(a.station_stats(0).successes, b.station_stats(0).successes);
  EXPECT_NEAR(ta, tb, 0.05 * ta);
}

// Everything a resumed run must reproduce: the full event trace, every
// station's counters, the clock and the medium's busy fraction.
struct ChannelOutcome {
  TraceRecorder trace;
  std::vector<std::vector<double>> stations;
  double elapsed_s = 0.0;
  double busy_fraction = 0.0;
};

ChannelOutcome run_in_pieces(const DcfParameters& p, TrafficOptions traffic,
                             const std::vector<SimTime>& pieces) {
  ChannelOutcome outcome;
  DcfChannelSim sim(p, 4, 21, traffic);
  sim.attach_trace(outcome.trace);
  for (const SimTime piece : pieces) sim.run(to_seconds(piece));
  for (int s = 0; s < sim.num_stations(); ++s) {
    const StationStats& st = sim.station_stats(s);
    outcome.stations.push_back(
        {static_cast<double>(st.attempts), static_cast<double>(st.successes),
         static_cast<double>(st.collisions),
         static_cast<double>(st.payload_bits),
         static_cast<double>(st.arrivals), static_cast<double>(st.drops),
         static_cast<double>(st.delay_s.count()), st.delay_s.mean()});
  }
  outcome.elapsed_s = sim.elapsed_seconds();
  outcome.busy_fraction = sim.medium_busy_fraction();
  return outcome;
}

TEST(DcfChannelSim, RunIsResumable) {
  // run(a); run(b) must equal run(a + b) event for event, wherever the
  // split lands: mid-DIFS, mid-countdown (between and on slot boundaries)
  // or mid-frame. The split points come from the unsplit run's own trace.
  DcfParameters rts = params();
  rts.access_mode = DcfAccessMode::kRtsCts;
  TrafficOptions poisson;
  poisson.saturated = false;
  poisson.arrival_rate_fps = 60.0;
  poisson.queue_capacity = 4;
  const struct {
    const char* name;
    DcfParameters params;
    TrafficOptions traffic;
  } modes[] = {{"basic", params(), {}},
               {"rts-cts", rts, {}},
               {"poisson", params(), poisson}};
  const SimTime total = from_seconds(0.5);
  for (const auto& mode : modes) {
    SCOPED_TRACE(mode.name);
    const ChannelOutcome whole =
        run_in_pieces(mode.params, mode.traffic, {total});
    const SimTime difs = from_seconds(mode.params.difs_s);
    const SimTime slot = from_seconds(mode.params.slot_time_s);
    // Busy periods [busy[i], idle[i]), in time order.
    const auto busy = whole.trace.filter(TraceEventKind::kMediumBusy);
    const auto idle = whole.trace.filter(TraceEventKind::kMediumIdle);
    ASSERT_GT(idle.size(), 20u);
    std::vector<SimTime> splits;
    for (std::size_t i = 0; i + 1 < idle.size() && i + 1 < busy.size(); ++i) {
      const SimTime gap = busy[i + 1].time - idle[i].time;
      if (gap <= difs + 2 * slot) continue;  // SIFS gap or a short countdown
      splits = {(busy[i].time + idle[i].time) / 2,  // mid-frame
                idle[i].time + difs / 2,            // mid-DIFS
                idle[i].time + difs + slot / 2,     // mid-slot
                idle[i].time + difs + slot,         // on a slot boundary
                busy[i + 1].time};                  // on the busy start
      if (i >= 10) break;  // past the start-up contention
    }
    ASSERT_EQ(splits.size(), 5u);
    for (const SimTime split : splits) {
      SCOPED_TRACE(split);
      const ChannelOutcome resumed =
          run_in_pieces(mode.params, mode.traffic, {split, total - split});
      EXPECT_EQ(resumed.trace.to_text(), whole.trace.to_text());
      EXPECT_EQ(resumed.stations, whole.stations);
      EXPECT_EQ(resumed.elapsed_s, whole.elapsed_s);
      EXPECT_EQ(resumed.busy_fraction, whole.busy_fraction);
    }
  }
}

// Events scheduled and then cancelled before they could fire.
std::uint64_t cancelled_events(const DcfChannelSim& sim) {
  const Simulator& kernel = sim.simulator();
  return kernel.events_scheduled() - kernel.events_processed() -
         kernel.events_pending();
}

TEST(DcfChannelSim, SchedulesOnlyExpiriesThatCanFire) {
  // A station arming in the SIFS gap before a booked ACK (or CTS, DATA)
  // schedules nothing, and one whose own frame was the last on the air
  // arms once, on the idle notification. So a lone station never cancels,
  // and in a crowd each busy start cancels at most the other stations'
  // expiries.
  DcfParameters rts = params();
  rts.access_mode = DcfAccessMode::kRtsCts;
  for (const DcfParameters& p : {params(), rts}) {
    SCOPED_TRACE(p.access_mode == DcfAccessMode::kBasic ? "basic" : "rts");
    DcfChannelSim lone(p, 1, 5);
    lone.run(5.0);
    EXPECT_GT(lone.station_stats(0).attempts, 0u);
    EXPECT_EQ(cancelled_events(lone), 0u);

    const int n = 8;
    DcfChannelSim crowd(p, n, 5);
    crowd.run(5.0);
    std::uint64_t attempts = 0;
    for (int s = 0; s < n; ++s) attempts += crowd.station_stats(s).attempts;
    ASSERT_GT(attempts, 0u);
    EXPECT_LE(static_cast<double>(cancelled_events(crowd)) /
                  static_cast<double>(attempts),
              n);
  }
}

TEST(DcfChannelSim, MediumBusyFractionIsSane) {
  DcfChannelSim sim(params(), 5, 13);
  sim.run(10.0);
  const double busy = sim.medium_busy_fraction();
  EXPECT_GT(busy, 0.5);   // saturated channel is mostly busy
  EXPECT_LE(busy, 1.0);
}

TEST(StationStats, DerivedQuantities) {
  StationStats stats;
  stats.attempts = 10;
  stats.collisions = 4;
  stats.successes = 6;
  stats.payload_bits = 6000;
  EXPECT_DOUBLE_EQ(stats.collision_probability(), 0.4);
  EXPECT_DOUBLE_EQ(stats.throughput_bps(2.0), 3000.0);
  EXPECT_DOUBLE_EQ(StationStats{}.collision_probability(), 0.0);
  EXPECT_DOUBLE_EQ(StationStats{}.throughput_bps(0.0), 0.0);
}

}  // namespace
}  // namespace mrca::sim
