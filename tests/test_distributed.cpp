#include "core/alloc/distributed.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "core/alloc/random_alloc.h"
#include "core/analysis/nash.h"
#include "engine/scenario.h"
#include "engine/sweep.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::power_law_game;

TEST(Distributed, RejectsBadActivationProbability) {
  const GameModel game = constant_game(2, 2, 1);
  Rng rng(1);
  DistributedOptions options;
  options.activation_probability = 0.0;
  EXPECT_THROW(
      run_distributed_allocation(game, game.empty_strategy(), options, rng),
      std::invalid_argument);
  options.activation_probability = 1.5;
  EXPECT_THROW(
      run_distributed_allocation(game, game.empty_strategy(), options, rng),
      std::invalid_argument);
}

TEST(Distributed, StableStartTerminatesInOneRound) {
  const GameModel game = constant_game(3, 3, 1);
  const auto stable = StrategyMatrix::from_rows(
      game.config(), {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  Rng rng(2);
  const DistributedResult result =
      run_distributed_allocation(game, stable, {}, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.total_moves, 0u);
  EXPECT_TRUE(result.final_state == stable);
}

TEST(Distributed, ConvergedStateIsSingleMoveStable) {
  const GameModel game = constant_game(5, 4, 2);
  Rng master(3);
  for (int trial = 0; trial < 20; ++trial) {
    Rng rng = master.split();
    const StrategyMatrix start = random_full_allocation(game, rng);
    DistributedOptions options;
    options.activation_probability = 0.3;
    options.max_rounds = 5000;
    const DistributedResult result =
        run_distributed_allocation(game, start, options, rng);
    ASSERT_TRUE(result.converged) << "trial " << trial;
    EXPECT_TRUE(is_single_move_stable(game, result.final_state));
  }
}

TEST(Distributed, SeedDeterminism) {
  const GameModel game = constant_game(4, 4, 2);
  Rng start_rng(44);
  const StrategyMatrix start = random_full_allocation(game, start_rng);
  DistributedOptions options;
  options.activation_probability = 0.5;
  Rng a(7);
  Rng b(7);
  const auto result_a = run_distributed_allocation(game, start, options, a);
  const auto result_b = run_distributed_allocation(game, start, options, b);
  EXPECT_TRUE(result_a.final_state == result_b.final_state);
  EXPECT_EQ(result_a.rounds, result_b.rounds);
  EXPECT_EQ(result_a.total_moves, result_b.total_moves);
}

TEST(Distributed, DeploysSparesFromEmptyStart) {
  const GameModel game = constant_game(4, 5, 3);
  Rng rng(8);
  DistributedOptions options;
  options.activation_probability = 0.4;
  options.max_rounds = 5000;
  const DistributedResult result =
      run_distributed_allocation(game, game.empty_strategy(), options, rng);
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(result.final_state.all_radios_deployed());
}

TEST(Distributed, LockstepActivationCanOscillateButIsBounded) {
  // p = 1: all users move simultaneously on stale information — classic
  // herding. The run must respect max_rounds and report honestly whether
  // the final state happens to be stable.
  const GameModel game = constant_game(4, 4, 2);
  Rng rng(9);
  const StrategyMatrix start = random_full_allocation(game, rng);
  DistributedOptions options;
  options.activation_probability = 1.0;
  options.max_rounds = 200;
  const DistributedResult result =
      run_distributed_allocation(game, start, options, rng);
  EXPECT_LE(result.rounds, 200u);
  if (result.converged) {
    EXPECT_TRUE(is_single_move_stable(game, result.final_state));
  }
}

/// Sweep: moderate activation probabilities must converge to a stable
/// allocation for all rate families, from both random and empty starts.
using DistParam = std::tuple<std::shared_ptr<const RateFunction>, double,
                             std::uint64_t>;

class DistributedSweep : public ::testing::TestWithParam<DistParam> {};

TEST_P(DistributedSweep, Converges) {
  const auto& [rate, probability, seed] = GetParam();
  const GameModel game(GameConfig(6, 5, 3), rate);
  Rng rng(seed);
  const StrategyMatrix start = random_full_allocation(game, rng);
  DistributedOptions options;
  options.activation_probability = probability;
  options.max_rounds = 20000;
  const DistributedResult result =
      run_distributed_allocation(game, start, options, rng);
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(is_single_move_stable(game, result.final_state));
  // Stability here implies full deployment (a spare radio always has an
  // improving deploy when R > 0).
  EXPECT_TRUE(result.final_state.all_radios_deployed());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistributedSweep,
    ::testing::Combine(
        ::testing::Values(std::make_shared<ConstantRate>(1.0),
                          std::make_shared<PowerLawRate>(1.0, 1.0)),
        ::testing::Values(0.1, 0.3, 0.6),
        ::testing::Values(101u, 202u)));

/// The protocol's trajectory on small cells of every scenario kind, pinned:
/// a change to the round loop, the scan or the commit order that moves any
/// decision shows up as a different round count, move count or final
/// allocation. The `dcf` rows run a strict DCF table from the crowded
/// start (every radio on channel 0, the table's largest load); the others
/// run an 8-user, 4-channel, 2-radio power-law cell from a random partial
/// allocation drawn from the run's own seed.
struct GoldenRun {
  const char* scenario;
  double probability;
  std::uint64_t seed;
  bool converged;
  std::size_t rounds;
  std::size_t total_moves;
  const char* final_key;
};

DistributedResult run_golden(const GoldenRun& golden) {
  DistributedOptions options;
  options.activation_probability = golden.probability;
  options.max_rounds = 300;
  Rng rng(golden.seed);
  if (std::string(golden.scenario) == "dcf") {
    const GameConfig config(6, 3, 1);
    const GameModel model(config, engine::RateSpec::parse("dcf").make(
                                      config.total_radios()));
    StrategyMatrix crowded = model.empty_strategy();
    for (UserId user = 0; user < config.num_users; ++user) {
      crowded.add_radio(user, 0);
    }
    return run_distributed_allocation(model, crowded, options, rng);
  }
  const GameModel model =
      engine::ScenarioSpec::parse(golden.scenario)
          .make_model(8, 4, 2, std::make_shared<PowerLawRate>(1.0, 0.5));
  const StrategyMatrix start = random_partial_allocation(model, rng);
  return run_distributed_allocation(model, start, options, rng);
}

TEST(DistributedGolden, TrajectoriesOnEveryScenarioKind) {
  const GoldenRun runs[] = {
      {"base", 0.05, 11, true, 207, 13,
       "0,0,1,1|0,0,1,1|1,1,0,0|1,1,0,0|1,0,0,1|0,1,0,1|1,0,1,0|0,1,1,0"},
      {"base", 0.3, 23, true, 8, 11,
       "1,1,0,0|0,1,0,1|0,1,1,0|1,0,1,0|0,0,1,1|1,1,0,0|1,0,0,1|0,0,1,1"},
      {"base", 1.0, 37, false, 300, 2400,
       "1,0,1,0|1,0,0,1|1,0,1,0|1,0,1,0|1,0,1,0|1,0,1,0|1,0,0,1|1,0,0,1"},
      {"energy=0.3", 0.05, 11, true, 31, 7,
       "0,0,1,1|0,0,1,0|0,0,0,0|1,0,0,0|0,0,0,0|0,1,0,1|1,0,0,0|0,1,0,0"},
      {"energy=0.3", 0.3, 23, true, 8, 6,
       "1,1,0,0|0,0,0,0|0,0,0,0|0,0,0,0|0,0,1,1|1,1,0,0|0,0,0,0|0,0,1,1"},
      {"energy=0.3", 1.0, 37, false, 300, 2400,
       "1,0,0,0|1,0,0,0|1,1,0,0|1,1,0,0|1,0,0,0|1,0,0,0|1,0,0,1|1,0,0,0"},
      {"het=2:1", 0.05, 11, true, 207, 14,
       "1,1,0,0|1,0,1,0|1,0,0,1|1,0,1,0|0,1,0,1|0,0,1,1|1,0,1,0|0,1,1,0"},
      {"het=2:1", 0.3, 23, true, 8, 12,
       "1,1,0,0|0,1,0,1|0,1,1,0|1,0,1,0|0,0,1,1|1,0,1,0|1,0,1,0|1,0,0,1"},
      {"het=2:1", 1.0, 37, false, 300, 2400,
       "1,1,0,0|1,0,0,1|1,1,0,0|1,1,0,0|1,1,0,0|1,1,0,0|1,0,0,1|1,0,0,1"},
      {"budgets=1:3", 0.05, 11, true, 207, 14,
       "1,0,0,0|0,1,1,1|0,0,0,1|1,1,1,0|1,0,0,0|0,1,1,1|0,0,1,0|1,1,0,1"},
      {"budgets=1:3", 0.3, 23, true, 19, 16,
       "0,0,1,0|1,1,1,0|0,0,0,1|1,1,1,0|0,0,0,1|1,0,1,1|0,1,0,0|1,1,0,1"},
      {"budgets=1:3", 1.0, 37, false, 300, 2396,
       "1,0,0,0|1,1,0,1|1,0,0,0|1,1,0,1|1,0,0,0|1,1,0,1|1,0,0,0|1,1,0,1"},
      {"weights=2:1", 0.05, 11, true, 207, 13,
       "0,0,1,1|0,0,1,1|1,1,0,0|1,1,0,0|1,0,0,1|0,1,0,1|1,0,1,0|0,1,1,0"},
      {"weights=2:1", 0.3, 23, true, 8, 11,
       "1,1,0,0|0,1,0,1|0,1,1,0|1,0,1,0|0,0,1,1|1,1,0,0|1,0,0,1|0,0,1,1"},
      {"weights=2:1", 1.0, 37, false, 300, 2400,
       "1,0,1,0|1,0,0,1|1,0,1,0|1,0,1,0|1,0,1,0|1,0,1,0|1,0,0,1|1,0,0,1"},
      {"topology=ring:2", 0.05, 11, true, 207, 14,
       "0,1,0,1|0,1,0,1|1,0,1,0|1,1,0,0|0,0,1,1|0,1,0,1|1,1,0,0|1,0,1,0"},
      {"topology=ring:2", 0.3, 23, true, 13, 13,
       "0,1,1,0|1,0,0,1|1,1,0,0|0,1,1,0|0,0,1,1|1,1,0,0|1,1,0,0|0,0,1,1"},
      {"topology=ring:2", 1.0, 37, false, 300, 2400,
       "0,1,1,0|0,1,0,1|0,1,0,1|0,1,1,0|0,1,1,0|0,1,1,0|0,1,0,1|0,1,0,1"},
      {"dcf", 0.05, 11, true, 55, 4,
       "0,0,1|1,0,0|0,1,0|1,0,0|0,1,0|0,0,1"},
      {"dcf", 0.3, 23, true, 3, 5,
       "1,0,0|1,0,0|0,1,0|0,1,0|0,0,1|0,0,1"},
      {"dcf", 1.0, 37, false, 300, 1800,
       "1,0,0|1,0,0|1,0,0|1,0,0|1,0,0|1,0,0"},
  };
  for (const GoldenRun& golden : runs) {
    SCOPED_TRACE(std::string(golden.scenario) + " p=" +
                 std::to_string(golden.probability));
    const DistributedResult result = run_golden(golden);
    EXPECT_EQ(result.converged, golden.converged);
    EXPECT_EQ(result.rounds, golden.rounds);
    EXPECT_EQ(result.total_moves, golden.total_moves);
    EXPECT_EQ(result.final_state.key(), golden.final_key);
  }
}

}  // namespace
}  // namespace mrca
