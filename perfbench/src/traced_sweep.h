// The traced re-execution of a workload.
//
// It drives the same public entry points run_session drives, in the same
// order and with the same seeds, and records a span around each call:
// plan build, rate tables and models, seed derivation, the start
// allocation, run_dynamics, the record columns, each Metric::compute, the
// sim tier, in-order delivery into the real sinks, and write_sweep. Its
// record stream and aggregate must equal an untraced run_session byte for
// byte; the harness checks that.
#pragma once

#include <ostream>

#include "engine/sweep.h"
#include "spec_args.h"
#include "trace.h"

namespace perfbench {

struct TracedSweep {
  mrca::engine::SweepResult result;
  /// Wall time of the root span: plan build through the last byte of the
  /// aggregate and record streams.
  double wall_s = 0.0;
};

/// Runs the workload under `tracer`, writing the aggregate (in the
/// workload's format) to `aggregate_out` and the JSONL records to
/// `records_out`.
TracedSweep traced_sweep(const Workload& workload, Tracer& tracer,
                         std::ostream& aggregate_out,
                         std::ostream& records_out);

}  // namespace perfbench
