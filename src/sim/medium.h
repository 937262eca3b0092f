// Shared broadcast medium for one orthogonal channel — a single collision
// domain, as the paper assumes ("the transmitters reside in the same
// collision domain", §2.1).
//
// Carrier sensing is idealized (zero sensing delay): every attached
// listener learns of busy/idle transitions at the instant they happen.
// A transmission is successful iff no other transmission overlapped any
// part of it. ACKs (and the CTS and DATA of an RTS/CTS exchange) are
// modelled as owner-less "system" transmissions: they occupy airtime and
// participate in collision accounting but report to no one. They are
// booked ahead (book_system_frame), and the medium remembers each booked
// start until the frame goes on the air, so a station arming its backoff
// can tell that a booked frame will make the medium busy before its DIFS
// wait ends (booked_before).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace mrca::sim {

/// Receives carrier-sense transitions of the medium.
class MediumListener {
 public:
  virtual ~MediumListener() = default;
  virtual void on_busy_start() = 0;
  virtual void on_idle_start() = 0;
};

/// Receives the outcome of an own transmission.
class TxListener {
 public:
  virtual ~TxListener() = default;
  virtual void on_transmission_end(bool success) = 0;
};

class Medium {
 public:
  explicit Medium(Simulator& simulator);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers for busy/idle notifications. Listeners must outlive the
  /// medium's use (the channel simulation owns both).
  void attach(MediumListener* listener);

  /// Optional event tracing; pass nullptr to detach. The recorder must
  /// outlive the medium's use.
  void set_trace(TraceRecorder* trace) noexcept { trace_ = trace; }

  bool is_idle() const noexcept { return active_.empty(); }

  /// Starts a transmission of `duration` ns. `owner` (may be null for
  /// system frames such as ACKs) is notified at the end with the collision
  /// verdict.
  void start_transmission(TxListener* owner, SimTime duration);

  /// Books an owner-less system frame (ACK, CTS, reserved DATA) of
  /// `duration` ns to start `delay` ns from now. Until it starts, stations
  /// can ask booked_before() whether it will seize the medium first.
  void book_system_frame(SimTime delay, SimTime duration);

  /// True when a booked system frame starts strictly before `t`.
  bool booked_before(SimTime t) const noexcept {
    return std::any_of(booked_.begin(), booked_.end(),
                       [t](SimTime start) { return start < t; });
  }

  /// Cumulative airtime statistics.
  std::uint64_t transmissions_started() const noexcept { return started_; }
  std::uint64_t collisions_observed() const noexcept { return collided_; }
  /// Fraction of elapsed time the medium was busy, up to `now`.
  double busy_fraction(SimTime now) const;

 private:
  struct ActiveTx {
    std::uint64_t id;
    TxListener* owner;
    bool collided;
  };

  void end_transmission(std::uint64_t id);

  Simulator& simulator_;
  std::vector<MediumListener*> listeners_;
  // The frames on the air, in transmission-id order (appended as they
  // start, erased in place as they end): start_transmission iterates it
  // to damage everything on the air, so the order is deterministic. It
  // holds the handful of concurrently airborne frames, so a linear find
  // beats a tree and allocates nothing once its capacity has grown.
  std::vector<ActiveTx> active_;
  // Start times of the booked system frames not yet on the air (at most
  // the three of one RTS/CTS exchange).
  std::vector<SimTime> booked_;
  std::uint64_t next_tx_id_ = 1;
  std::uint64_t started_ = 0;
  std::uint64_t collided_ = 0;
  TimeWeightedMean busy_tracker_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace mrca::sim
