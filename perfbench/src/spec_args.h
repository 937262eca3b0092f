// A workload as `mrca sweep` flags, parsed into the library's SweepSpec.
//
// The benchmark keeps each workload as the exact flag list a user would
// type, so the same list drives the in-process session and the `mrca farm`
// children. Defaults and axis languages match the CLI: the farm refuses
// child artifacts whose fingerprint differs from the in-process plan.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "engine/sweep.h"
#include "engine/sweep_io.h"

namespace perfbench {

struct Workload {
  mrca::engine::SweepSpec spec;
  std::size_t threads = 1;
  mrca::engine::SweepFormat format = mrca::engine::SweepFormat::kTable;
  /// The flags minus --format: what the farm forwards to every child.
  std::vector<std::string> sweep_args;
};

/// Parses sweep flags; throws std::invalid_argument naming a bad flag.
Workload parse_workload(const std::vector<std::string>& args);

}  // namespace perfbench
