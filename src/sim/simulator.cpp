#include "sim/simulator.h"

#include <limits>
#include <stdexcept>

namespace mrca::sim {

EventId Simulator::schedule_at(SimTime when, std::function<void()> handler) {
  if (when < now_) {
    throw std::logic_error("Simulator: cannot schedule in the past");
  }
  return queue_.schedule(when, std::move(handler));
}

EventId Simulator::schedule_in(SimTime delay, std::function<void()> handler) {
  if (delay < 0) {
    throw std::logic_error("Simulator: negative delay");
  }
  return queue_.schedule(now_ + delay, std::move(handler));
}

std::size_t Simulator::run_until(SimTime end) {
  // run_due advances the clock BEFORE dispatching, so handlers observe
  // now() == their own timestamp (and schedule_in computes correct offsets).
  std::size_t ran = 0;
  while (queue_.run_due(end, now_)) ++ran;
  now_ = end;
  processed_ += ran;
  return ran;
}

std::size_t Simulator::run_all() {
  std::size_t ran = 0;
  while (queue_.run_due(std::numeric_limits<SimTime>::max(), now_)) ++ran;
  processed_ += ran;
  return ran;
}

}  // namespace mrca::sim
