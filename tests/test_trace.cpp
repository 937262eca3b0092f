// Trace recorder and fine-grained temporal properties of the DCF MAC.
#include <gtest/gtest.h>

#include "sim/mac_dcf.h"
#include "sim/trace.h"

namespace mrca::sim {
namespace {

TEST(TraceRecorder, RecordsInOrder) {
  TraceRecorder trace;
  trace.record(10, TraceEventKind::kTxStart, 0);
  trace.record(20, TraceEventKind::kTxEndSuccess, 0);
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].time, 10);
  EXPECT_EQ(trace.events()[1].kind, TraceEventKind::kTxEndSuccess);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceRecorder, CapsMemory) {
  TraceRecorder trace(3);
  for (int i = 0; i < 10; ++i) {
    trace.record(i, TraceEventKind::kMediumBusy);
  }
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.dropped(), 7u);
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceRecorder, FiltersByKindAndStation) {
  TraceRecorder trace;
  trace.record(1, TraceEventKind::kTxStart, 0);
  trace.record(2, TraceEventKind::kTxStart, 1);
  trace.record(3, TraceEventKind::kTxEndSuccess, 0);
  EXPECT_EQ(trace.filter(TraceEventKind::kTxStart).size(), 2u);
  EXPECT_EQ(trace.filter_station(0).size(), 2u);
  EXPECT_EQ(trace.filter_station(7).size(), 0u);
}

TEST(TraceRecorder, TextRendering) {
  TraceRecorder trace;
  trace.record(42, TraceEventKind::kTxStart, 3);
  trace.record(43, TraceEventKind::kMediumBusy);
  const std::string text = trace.to_text();
  EXPECT_NE(text.find("42 TX_START stn=3"), std::string::npos);
  EXPECT_NE(text.find("43 MEDIUM_BUSY"), std::string::npos);
}

TEST(TraceRecorder, EventNamesAreDistinct) {
  EXPECT_STRNE(trace_event_name(TraceEventKind::kTxStart),
               trace_event_name(TraceEventKind::kTxEndSuccess));
  EXPECT_STRNE(trace_event_name(TraceEventKind::kMediumBusy),
               trace_event_name(TraceEventKind::kMediumIdle));
}

class TracedDcf : public ::testing::Test {
 protected:
  TracedDcf() : channel_(DcfParameters::bianchi_fhss(), 2, 2024) {
    channel_.attach_trace(trace_);
    channel_.run(2.0);
  }
  TraceRecorder trace_;
  DcfChannelSim channel_;
};

TEST(TraceDeterminism, IdenticalRunsProduceByteIdenticalTraces) {
  // Regression guard for the sim tier's container-order audit: the medium
  // damages "everything on the air" by iterating its active-transmission
  // list, and the event queue interleaves same-tick events by sequence
  // number. Neither may let hash or scheduling order leak into the event
  // stream — two runs from the same seed must agree byte for byte, which
  // is also what makes `--sim` sweep columns thread-count-invariant.
  const auto run_traced = [](std::uint64_t seed) {
    TraceRecorder trace;
    DcfChannelSim channel(DcfParameters::bianchi_fhss(), 4, seed);
    channel.attach_trace(trace);
    channel.run(1.0);
    return trace.to_text();
  };
  const std::string first = run_traced(2026);
  const std::string second = run_traced(2026);
  EXPECT_GT(first.size(), 1000u);
  EXPECT_EQ(first, second);
  // Different seed, different schedule — guards against to_text()
  // accidentally comparing trivially-equal empty traces.
  EXPECT_NE(first, run_traced(2027));
}

TEST_F(TracedDcf, EveryAttemptHasAnOutcome) {
  const auto starts = trace_.filter(TraceEventKind::kTxStart);
  const auto oks = trace_.filter(TraceEventKind::kTxEndSuccess);
  const auto collisions = trace_.filter(TraceEventKind::kTxEndCollision);
  // Every start is eventually adjudicated (modulo one in-flight at the end).
  EXPECT_GE(starts.size(), oks.size() + collisions.size());
  EXPECT_LE(starts.size(), oks.size() + collisions.size() + 2);
  EXPECT_GT(starts.size(), 100u);
}

TEST_F(TracedDcf, TraceCountsMatchStationStats) {
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  for (int s = 0; s < channel_.num_stations(); ++s) {
    attempts += channel_.station_stats(s).attempts;
    successes += channel_.station_stats(s).successes;
  }
  EXPECT_EQ(trace_.filter(TraceEventKind::kTxStart).size(), attempts);
  EXPECT_EQ(trace_.filter(TraceEventKind::kTxEndSuccess).size(), successes);
}

TEST_F(TracedDcf, MediumBusyIdleAlternate) {
  TraceEventKind expected = TraceEventKind::kMediumBusy;
  for (const TraceEvent& event : trace_.events()) {
    if (event.kind != TraceEventKind::kMediumBusy &&
        event.kind != TraceEventKind::kMediumIdle) {
      continue;
    }
    ASSERT_EQ(event.kind, expected) << "at t=" << event.time;
    expected = expected == TraceEventKind::kMediumBusy
                   ? TraceEventKind::kMediumIdle
                   : TraceEventKind::kMediumBusy;
  }
}

TEST_F(TracedDcf, DataFrameDurationIsExact) {
  // Time from a solo TX_START to its TX_OK equals H + payload + prop.
  const DcfParameters params = DcfParameters::bianchi_fhss();
  const SimTime expected =
      from_seconds(params.header_time_s() + params.payload_time_s()) +
      from_seconds(params.prop_delay_s);
  const auto starts = trace_.filter(TraceEventKind::kTxStart);
  const auto oks = trace_.filter(TraceEventKind::kTxEndSuccess);
  ASSERT_FALSE(oks.empty());
  // Find the start matching the first success (same station, latest start
  // before the end).
  const TraceEvent& ok = oks.front();
  SimTime start_time = -1;
  for (const TraceEvent& start : starts) {
    if (start.station == ok.station && start.time < ok.time) {
      start_time = start.time;
    }
    if (start.time >= ok.time) break;
  }
  ASSERT_GE(start_time, 0);
  EXPECT_EQ(ok.time - start_time, expected);
}

TEST_F(TracedDcf, AckFollowsDataBySifs) {
  // A successful data frame ends with the medium idle at the TX_OK tick;
  // the next medium-busy transition is the ACK, exactly SIFS later.
  const SimTime sifs = from_seconds(DcfParameters::bianchi_fhss().sifs_s);
  const auto& events = trace_.events();
  int checked = 0;
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    if (events[i].kind != TraceEventKind::kTxEndSuccess) continue;
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].kind == TraceEventKind::kMediumBusy) {
        ASSERT_EQ(events[j].time - events[i].time, sifs)
            << "success at t=" << events[i].time;
        ++checked;
        break;
      }
    }
    if (checked > 20) break;
  }
  EXPECT_GT(checked, 10);
}

}  // namespace
}  // namespace mrca::sim
