// E12 (extension) — offered load vs carried load and delay for 802.11 DCF:
// the classic saturation-transition figure, produced by the unsaturated
// (Poisson) station mode of the DES. Validates that the paper's saturated
// analysis is the limiting regime of the packet-level system.
#include <iostream>

#include "mrca.h"

int main() {
  using namespace mrca;

  std::cout << "==============================================================\n"
            << " E12: offered load sweep — 802.11 DCF, n=5 stations\n"
            << "==============================================================\n\n";

  const DcfParameters params = DcfParameters::bianchi_fhss();
  const BianchiDcfModel model(params);
  constexpr int kStations = 5;
  const double saturation_bps =
      model.saturation_throughput(kStations).throughput_bps;
  const double frame_bits = static_cast<double>(params.payload_bits);

  std::cout << "Bianchi saturation throughput for n=" << kStations << ": "
            << saturation_bps / 1e6 << " Mbit/s ("
            << saturation_bps / frame_bits << " frames/s total)\n\n";

  Table table({"offered [fr/s/stn]", "offered [Mbit/s]", "carried [Mbit/s]",
               "mean delay [ms]", "p95 delay [ms]", "drop %"});
  for (const double rate_fps :
       {2.0, 5.0, 10.0, 15.0, 18.0, 20.0, 22.0, 25.0, 35.0, 60.0}) {
    sim::TrafficOptions traffic;
    traffic.saturated = false;
    traffic.arrival_rate_fps = rate_fps;
    traffic.queue_capacity = 100;
    sim::DcfChannelSim channel(params, kStations,
                               7000 + static_cast<std::uint64_t>(rate_fps),
                               traffic);
    channel.run(60.0);

    RunningStats delay;
    std::uint64_t arrivals = 0;
    std::uint64_t drops = 0;
    for (int s = 0; s < kStations; ++s) {
      const auto& stats = channel.station_stats(s);
      delay.merge(stats.delay_s);
      arrivals += stats.arrivals;
      drops += stats.drops;
    }
    const double offered_bps = kStations * rate_fps * frame_bits;
    table.add_row(
        {Table::fmt(rate_fps, 1), Table::fmt(offered_bps / 1e6, 4),
         Table::fmt(channel.total_throughput_bps() / 1e6, 4),
         Table::fmt(delay.mean() * 1e3, 2),
         Table::fmt((delay.mean() + 2 * delay.stddev()) * 1e3, 2),
         Table::fmt(arrivals > 0
                        ? 100.0 * static_cast<double>(drops) /
                              static_cast<double>(arrivals)
                        : 0.0,
                    2)});
  }
  table.print(std::cout);

  std::cout << "\nReading: carried load tracks offered load up to the\n"
            << "saturation knee (~" << saturation_bps / frame_bits / kStations
            << " frames/s/station), then pins at the Bianchi limit while\n"
            << "delay and drops explode — the saturated game analysis is\n"
            << "the right model exactly where contention matters.\n";
  return 0;
}
