#include "core/alloc/distributed.h"

#include <span>
#include <stdexcept>
#include <vector>

#include "core/analysis/deviation.h"
#include "core/analysis/snapshot_scan.h"

namespace mrca {

DistributedResult run_distributed_allocation(const GameModel& model,
                                             const StrategyMatrix& start,
                                             const DistributedOptions& options,
                                             Rng& rng) {
  model.validate(start);
  if (!(options.activation_probability > 0.0 &&
        options.activation_probability <= 1.0)) {
    throw std::invalid_argument(
        "run_distributed_allocation: activation probability must be in (0,1]");
  }
  DistributedResult result{false, 0, 0, start};
  StrategyMatrix& state = result.final_state;
  const std::size_t users = model.config().num_users;

  // One scanner, re-bound after every commit phase: the termination test
  // and the plan phase read the same memoized scans of the snapshot.
  SnapshotScanner scanner(model, state, options.tolerance);
  std::vector<UserId> active(users);
  std::vector<SingleChange> planned;
  planned.reserve(users);
  while (result.rounds < options.max_rounds) {
    ++result.rounds;
    // Termination test against the *current* state: if nobody has an
    // improving single change, the protocol is stable regardless of who
    // activates.
    if (scanner.stable()) {
      result.converged = true;
      break;
    }
    // Plan phase: all active users decide against the same stale snapshot.
    // The round's coins are drawn first, in user order; scans draw nothing,
    // so the stream and the planned order are those of drawing per user.
    // Every user is written to the next free slot, which a won coin keeps.
    std::size_t active_count = 0;
    for (UserId user = 0; user < users; ++user) {
      active[active_count] = user;
      active_count += rng.bernoulli(options.activation_probability) ? 1 : 0;
    }
    planned.clear();
    for (const UserId user : std::span(active).first(active_count)) {
      if (const auto& change = scanner.best(user)) planned.push_back(*change);
    }
    // Commit phase: apply simultaneously-decided changes. A planned change
    // is always applicable: it only touches the planning user's own radios,
    // within their own budget (a deploy is only proposed with a spare).
    for (const SingleChange& change : planned) {
      apply_change(state, change);
      ++result.total_moves;
    }
    scanner.bind(state);
  }
  if (!result.converged) result.converged = scanner.stable();
  return result;
}

}  // namespace mrca
