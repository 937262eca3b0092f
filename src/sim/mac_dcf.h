// Event-driven IEEE 802.11 DCF (CSMA/CA, basic access) on one channel —
// the "practical CSMA/CA" of the paper's Figure 3, simulated rather than
// modelled.
//
// Station behavior (saturated, i.e. always backlogged):
//   - after the medium has been idle for DIFS, the backoff counter
//     decrements once per idle slot; it freezes while the medium is busy;
//   - at counter zero the station transmits the whole frame; simultaneous
//     expiries at the same slot boundary collide (exact integer timestamps);
//   - on success (no overlap), the receiver's ACK is modelled as a system
//     transmission SIFS after the data frame, and the contention window
//     resets to CW_min;
//   - on collision the window doubles, up to CW_min * 2^max_backoff_stage
//     (binary exponential backoff, Bianchi's W and m).
//
// Event model: at most one event per station per contention period, not
// one per idle slot. Arming (at start, when the medium goes idle, or when a
// frame reaches an idle station) sets the countdown origin to now + DIFS and
// schedules a single expiry at origin + counter * slot, which transmits.
// Only an expiry that can fire is scheduled: the ACK after a data frame
// (and the CTS, DATA and ACK after a winning RTS) is booked on the medium
// one SIFS ahead, and a station arming in such a SIFS gap, with a booked
// frame starting strictly before its origin, stays armed without a pending
// event; the booked frame freezes it before its first slot, with the same
// trace lines. With DIFS == SIFS (the validator's limit) the booked frame
// starts exactly at the origin, so the expiry is scheduled: a counter of
// zero fires into the booked frame and collides, and the boundary rule
// below needs its id.
// When the medium turns busy first, the counter freezes by arithmetic:
// counter -= (now - origin) / slot for now >= origin (a boundary at
// exactly this tick counts as elapsed), and the expiry is cancelled. If
// that leaves zero, the expiry is at this tick and still fires after the
// event that made the medium busy: a collision. A boundary at this tick
// is ordered with same-tick FIFO: a station armed before the transmitter
// (a smaller EventId) reached it while the medium was idle and logs a
// BACKOFF_FREEZE; one armed after reached it with the medium already busy
// and logs none. Counters and statistics equal those of a countdown that
// decrements once per idle slot; so does the trace whenever the
// contending stations share one origin, which saturated traffic always
// does. With Poisson arrivals a same-tick tie can order differently
// (e.g. origins a whole number of slots apart: a per-slot countdown runs
// the later origin first, this model the earlier arming), which moves a
// BACKOFF_FREEZE line or the order of same-tick lines, never a counter.
// tests/golden/sim pins the traces.
//
// Validation: repro/sim_validation.cpp and the test suite compare the measured
// saturation throughput and collision probability against the Bianchi
// fixed-point model for the same parameters.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "mac/dcf_parameters.h"
#include "sim/medium.h"
#include "sim/simulator.h"

namespace mrca::sim {

struct StationStats {
  std::uint64_t attempts = 0;    ///< frames put on the air
  std::uint64_t successes = 0;   ///< frames acknowledged
  std::uint64_t collisions = 0;  ///< frames lost to overlap
  std::uint64_t payload_bits = 0;
  std::uint64_t arrivals = 0;    ///< frames offered (unsaturated mode)
  std::uint64_t drops = 0;       ///< frames lost to queue overflow
  /// Sojourn time (enqueue -> delivery) in seconds, unsaturated mode only.
  RunningStats delay_s;

  double throughput_bps(double duration_s) const {
    return duration_s > 0.0
               ? static_cast<double>(payload_bits) / duration_s
               : 0.0;
  }
  /// Empirical conditional collision probability (per attempt).
  double collision_probability() const {
    return attempts > 0
               ? static_cast<double>(collisions) /
                     static_cast<double>(attempts)
               : 0.0;
  }
  double drop_fraction() const {
    return arrivals > 0
               ? static_cast<double>(drops) / static_cast<double>(arrivals)
               : 0.0;
  }
};

/// Traffic configuration for one station.
struct TrafficOptions {
  /// Saturated (always backlogged, Bianchi's regime) when true; otherwise
  /// frames arrive as a Poisson process and queue.
  bool saturated = true;
  /// Mean arrivals per second (unsaturated mode).
  double arrival_rate_fps = 0.0;
  /// Maximum queued frames before tail drop (unsaturated mode).
  std::size_t queue_capacity = 200;
};

class DcfStation final : public MediumListener, public TxListener {
 public:
  DcfStation(Simulator& simulator, Medium& medium,
             const DcfParameters& params, Rng rng,
             TrafficOptions traffic = {});

  DcfStation(const DcfStation&) = delete;
  DcfStation& operator=(const DcfStation&) = delete;

  /// Arms the station at the current simulation time (medium must be idle).
  void start();

  /// Optional event tracing; `station_id` labels this station's events.
  void set_trace(TraceRecorder* trace, int station_id) noexcept {
    trace_recorder_ = trace;
    trace_id_ = station_id;
  }

  const StationStats& stats() const noexcept { return stats_; }
  std::size_t queue_length() const noexcept { return queue_.size(); }

  // MediumListener:
  void on_busy_start() override;
  void on_idle_start() override;
  // TxListener:
  void on_transmission_end(bool success) override;

 private:
  bool has_traffic() const noexcept {
    return traffic_.saturated || !queue_.empty();
  }
  void schedule_next_arrival();
  void on_arrival();
  void arm();
  void begin_transmission();
  void draw_backoff();
  int contention_window() const;
  void cancel_pending();

  Simulator& simulator_;
  Medium& medium_;
  DcfParameters params_;
  Rng rng_;

  // Precomputed durations (ns).
  SimTime difs_ = 0;
  SimTime sifs_ = 0;
  SimTime slot_ = 0;
  SimTime prop_ = 0;
  SimTime data_duration_ = 0;
  SimTime ack_duration_ = 0;
  SimTime rts_duration_ = 0;
  SimTime cts_duration_ = 0;

  /// Slots left to count from countdown_origin_ (frozen value while the
  /// station is not armed).
  int backoff_counter_ = 0;
  int backoff_stage_ = 0;
  bool medium_busy_ = false;
  bool transmitting_ = false;

  /// The armed countdown: slot boundaries fall at countdown_origin_ +
  /// j * slot_, and pending_event_ fires at the last one. armed_ without a
  /// pending event (kInvalidEvent) means a booked system frame freezes the
  /// countdown before its origin.
  SimTime countdown_origin_ = 0;
  bool armed_ = false;
  EventId pending_event_ = kInvalidEvent;

  TrafficOptions traffic_;
  std::deque<SimTime> queue_;  ///< enqueue timestamps (unsaturated mode)

  TraceRecorder* trace_recorder_ = nullptr;
  int trace_id_ = -1;

  StationStats stats_;
};

/// One channel with `stations` DCF stations (saturated by default; pass
/// TrafficOptions for Poisson offered load).
class DcfChannelSim {
 public:
  DcfChannelSim(const DcfParameters& params, int stations,
                std::uint64_t seed, TrafficOptions traffic = {});

  /// Runs the channel for `seconds` of simulated time (resumable).
  void run(double seconds);

  /// Wires a trace recorder into the medium and every station.
  void attach_trace(TraceRecorder& trace);

  int num_stations() const noexcept { return static_cast<int>(stations_.size()); }
  const StationStats& station_stats(int station) const;
  double elapsed_seconds() const;

  /// Sum of per-station payload throughputs, bit/s.
  double total_throughput_bps() const;
  /// Per-station throughputs (for fairness analysis).
  std::vector<double> per_station_throughput_bps() const;
  /// Attempt-weighted empirical collision probability.
  double collision_probability() const;
  double medium_busy_fraction() const;

  /// The channel's simulation kernel (event counters).
  const Simulator& simulator() const noexcept { return simulator_; }

 private:
  DcfParameters params_;
  Simulator simulator_;
  std::unique_ptr<Medium> medium_;
  std::vector<std::unique_ptr<DcfStation>> stations_;
};

}  // namespace mrca::sim
