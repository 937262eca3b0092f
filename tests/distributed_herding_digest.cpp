// Distributed-protocol golden in the herding regime: one line per
// portfolio-shaped cell (five single-collision-domain scenario kinds x
// three rate families x 32/64 users x 8/12/16 channels x 2 seeds, two
// radios each), pinning run_distributed_allocation at the default
// activation probability from a random full start — converged, rounds,
// total moves and the FNV-1a of final_state.key() — plus the
// is_single_move_stable verdict of an independent random partial state.
// Most 64-user cells still herd when the round cap stops them: the regime
// SnapshotScanner's ranked single-domain search serves, and one that
// test_distributed's DistributedGolden (8 users, 300 rounds) never reaches.
// ctest compares the output byte for byte with
// tests/golden/alloc/distributed_herding_digest.txt.
//
// Regenerate after an intended change to the protocol or the scan: from
// the source root, redirect the output of ./build/distributed_herding_digest
// over tests/golden/alloc/distributed_herding_digest.txt.
#include <cstdint>
#include <iostream>
#include <string>

#include "common/rng.h"
#include "core/alloc/distributed.h"
#include "core/alloc/random_alloc.h"
#include "core/analysis/nash.h"
#include "engine/scenario.h"
#include "engine/sweep.h"

namespace {

// Keeps the whole grid well under a second in a Release build; 79 of the
// 90 64-user cells are still herding when it stops them.
constexpr std::size_t kMaxRounds = 1000;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace

int main() {
  using namespace mrca;
  std::cout << "# scenario rate users channels seed converged rounds moves "
               "fnv1a64(final_state.key()) random_partial_stable\n";
  DistributedOptions options;
  options.max_rounds = kMaxRounds;
  for (const char* scenario :
       {"base", "energy=0.05", "het=2:1", "budgets=1:3", "weights=2:1"}) {
    const auto spec = engine::ScenarioSpec::parse(scenario);
    for (const char* rate : {"tdma", "powerlaw=0.5", "geom=0.9"}) {
      const auto rate_fn = engine::RateSpec::parse(rate).make(0);
      for (const std::size_t users : {32, 64}) {
        for (const std::size_t channels : {8, 12, 16}) {
          const GameModel model = spec.make_model(users, channels, 2, rate_fn);
          for (const std::uint64_t seed : {1, 2}) {
            Rng rng(seed);
            const StrategyMatrix start = random_full_allocation(model, rng);
            const DistributedResult result =
                run_distributed_allocation(model, start, options, rng);
            Rng probe_rng(seed + 1000);
            const StrategyMatrix probe =
                random_partial_allocation(model, probe_rng);
            std::cout << scenario << ' ' << rate << ' ' << users << ' '
                      << channels << ' ' << seed << ' ' << result.converged
                      << ' ' << result.rounds << ' ' << result.total_moves
                      << ' ' << fnv1a(result.final_state.key()) << ' '
                      << is_single_move_stable(model, probe) << '\n';
          }
        }
      }
    }
  }
  return 0;
}
