// DES golden: one line per DCF channel configuration, pinning the full
// event trace (line count + FNV-1a of TraceRecorder::to_text()) and the
// per-station counters of a run resumed once (run(0.7) then run(0.6)).
// ctest compares the output byte for byte with
// tests/golden/sim/dcf_trace_digest.txt; any change to event order, to the
// backoff arithmetic or to the medium's collision accounting moves it.
//
// Regenerate after an intended change to the simulated MAC, from the
// source root:
//   ./build/dcf_trace_digest > tests/golden/sim/dcf_trace_digest.txt
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "sim/mac_dcf.h"

namespace {

using mrca::DcfAccessMode;
using mrca::DcfParameters;
using namespace mrca::sim;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

struct Mode {
  const char* name;
  DcfParameters params;
  TrafficOptions traffic;
};

std::vector<Mode> modes() {
  DcfParameters rts = DcfParameters::bianchi_fhss();
  rts.access_mode = DcfAccessMode::kRtsCts;
  // Poisson offered load above the channel's capacity from two stations on,
  // into a three-frame queue, so tail drops occur.
  TrafficOptions unsaturated;
  unsaturated.saturated = false;
  unsaturated.arrival_rate_fps = 400.0;
  unsaturated.queue_capacity = 3;
  // DIFS == SIFS (the validator's lower limit): a system frame booked one
  // SIFS after a frame then starts exactly at the contenders' countdown
  // origin rather than before it, so a counter-0 expiry collides with it.
  const auto difs_is_sifs = [](DcfParameters p) {
    p.difs_s = p.sifs_s;
    return p;
  };
  return {{"basic-fhss", DcfParameters::bianchi_fhss(), {}},
          {"basic-dsss11", DcfParameters::dsss_11mbps(), {}},
          {"rts-cts-fhss", rts, {}},
          {"poisson-dsss11", DcfParameters::dsss_11mbps(), unsaturated},
          {"basic-fhss-difs=sifs",
           difs_is_sifs(DcfParameters::bianchi_fhss()), {}},
          {"rts-cts-fhss-difs=sifs", difs_is_sifs(rts), {}},
          {"poisson-dsss11-difs=sifs",
           difs_is_sifs(DcfParameters::dsss_11mbps()), unsaturated}};
}

}  // namespace

int main() {
  std::cout << "# mode stations seed trace_lines fnv1a64(trace) busy_fraction "
               "attempts/successes/collisions/arrivals/drops per station\n";
  std::cout << std::setprecision(17);
  for (const Mode& mode : modes()) {
    for (const int stations : {1, 2, 3, 5, 8, 16, 32}) {
      for (const std::uint64_t seed : {1, 2, 3}) {
        TraceRecorder trace;
        DcfChannelSim channel(mode.params, stations, seed, mode.traffic);
        channel.attach_trace(trace);
        channel.run(0.7);
        channel.run(0.6);
        if (trace.dropped() != 0) {
          std::cerr << "trace recorder full: " << mode.name << " n=" << stations
                    << " seed=" << seed << '\n';
          return 1;
        }
        std::cout << mode.name << ' ' << stations << ' ' << seed << ' '
                  << trace.events().size() << ' ' << std::hex
                  << std::setfill('0') << std::setw(16)
                  << fnv1a(trace.to_text()) << std::dec << ' '
                  << channel.medium_busy_fraction();
        for (int s = 0; s < stations; ++s) {
          const StationStats& st = channel.station_stats(s);
          std::cout << ' ' << st.attempts << '/' << st.successes << '/'
                    << st.collisions << '/' << st.arrivals << '/' << st.drops;
        }
        std::cout << '\n';
      }
    }
  }
  return 0;
}
