#include "core/alloc/utility_cache.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/alloc/best_response.h"
#include "core/alloc/random_alloc.h"
#include "core/alloc/sequential.h"
#include "core/analysis/deviation.h"
#include "core/rate_table.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::figure1_rows;
using testing::matrix_of;
using testing::power_law_game;
using testing::TraceDigest;

std::vector<std::shared_ptr<const RateFunction>> rate_families() {
  return {std::make_shared<ConstantRate>(1.0),
          std::make_shared<PowerLawRate>(1.0, 1.0),
          std::make_shared<GeometricDecayRate>(1.0, 0.8),
          std::make_shared<LinearDecayRate>(1.0, 0.05)};
}

TEST(RateTable, BitIdenticalToFunctionOverTabulatedRange) {
  for (const auto& rate_fn : rate_families()) {
    const RateTable table(*rate_fn, 24);
    for (RadioCount k = 0; k <= 24; ++k) {
      EXPECT_EQ(table.rate(k), rate_fn->rate(k)) << rate_fn->name();
      EXPECT_EQ(table.per_radio(k), rate_fn->per_radio(k)) << rate_fn->name();
    }
  }
}

TEST(RateTable, FallsBackToFunctionBeyondTabulatedRange) {
  const PowerLawRate rate_fn(1.0, 1.0);
  const RateTable table(rate_fn, 4);
  EXPECT_EQ(table.rate(9), rate_fn.rate(9));
  EXPECT_EQ(table.per_radio(9), rate_fn.per_radio(9));
}

/// A rate function that is finite everywhere except at one load.
class NonFiniteAtRate final : public RateFunction {
 public:
  NonFiniteAtRate(RadioCount bad_load, double bad_rate)
      : bad_load_(bad_load), bad_rate_(bad_rate) {}
  double rate(int k) const override {
    return k == bad_load_ ? bad_rate_ : (k > 0 ? 1.0 : 0.0);
  }
  std::string name() const override { return "non-finite"; }

 private:
  RadioCount bad_load_;
  double bad_rate_;
};

TEST(RateTable, RejectsANonFiniteRateNamingTheLoad) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const NonFiniteAtRate rate_fn(3, bad);
    try {
      const RateTable table(rate_fn, 5);
      ADD_FAILURE() << "accepted a rate of " << bad;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("load 3"), std::string::npos)
          << error.what();
    }
    // Only the tabulated loads are checked: past max_load the function is
    // the table's fallback, read only for loads no game of that size has.
    EXPECT_NO_THROW(RateTable(rate_fn, 2));
  }
  // validate_non_increasing rejects an infinity but lets a NaN through (its
  // comparisons are false); the game's table, sized to load 4, stops it.
  EXPECT_THROW(
      GameModel(GameConfig(2, 2, 2),
                std::make_shared<NonFiniteAtRate>(
                    3, std::numeric_limits<double>::quiet_NaN())),
      std::invalid_argument);
}

TEST(UtilityCache, MatchesFullRecomputeOnFigure1) {
  const GameModel game = power_law_game(4, 5, 4);
  const StrategyMatrix matrix = matrix_of(game, figure1_rows());
  const UtilityCache cache(game, matrix);
  for (UserId i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(cache.utility(i), game.utility(matrix, i));
  }
  EXPECT_DOUBLE_EQ(cache.welfare(), game.welfare(matrix));
}

/// The regression the tentpole demands: a long randomized trajectory of
/// single-radio deltas and whole-row rewrites must leave the incremental
/// utilities in agreement with the full recompute.
TEST(UtilityCache, TracksRandomTrajectoriesWithinTolerance) {
  for (const auto& rate_fn : rate_families()) {
    const GameModel game(GameConfig(8, 6, 3), rate_fn);
    Rng rng(2024);
    StrategyMatrix matrix = random_partial_allocation(game, rng);
    UtilityCache cache(game, matrix);
    for (int step = 0; step < 4000; ++step) {
      const UserId user = static_cast<UserId>(rng.index(8));
      const ChannelId a = static_cast<ChannelId>(rng.index(6));
      const ChannelId b = static_cast<ChannelId>(rng.index(6));
      switch (rng.index(4)) {
        case 0:
          if (matrix.spare_radios(user) > 0) cache.add_radio(matrix, user, a);
          break;
        case 1:
          if (matrix.at(user, a) > 0) cache.remove_radio(matrix, user, a);
          break;
        case 2:
          if (matrix.at(user, a) > 0) cache.move_radio(matrix, user, a, b);
          break;
        case 3: {
          // Random budget-respecting row rewrite.
          std::vector<RadioCount> row(6, 0);
          RadioCount budget = game.config().radios_per_user;
          while (budget > 0 && rng.bernoulli(0.7)) {
            ++row[rng.index(6)];
            --budget;
          }
          cache.set_row(matrix, user, row);
          break;
        }
      }
    }
    EXPECT_LT(cache.max_drift(matrix), 1e-10) << rate_fn->name();
  }
}

TEST(UtilityCache, OccupantListsTrackMembership) {
  const GameModel game = constant_game(3, 3, 2);
  StrategyMatrix matrix = game.empty_strategy();
  UtilityCache cache(game, matrix);
  EXPECT_TRUE(cache.occupants(0).empty());
  cache.add_radio(matrix, 1, 0);
  ASSERT_EQ(cache.occupants(0).size(), 1u);
  EXPECT_EQ(cache.occupants(0)[0], 1u);
  cache.add_radio(matrix, 1, 0);  // second radio, still one occupant
  EXPECT_EQ(cache.occupants(0).size(), 1u);
  cache.remove_radio(matrix, 1, 0);
  EXPECT_EQ(cache.occupants(0).size(), 1u);
  cache.remove_radio(matrix, 1, 0);
  EXPECT_TRUE(cache.occupants(0).empty());
}

TEST(UtilityCache, InvalidMutationsThrowWithoutCorruptingTheCache) {
  const GameModel game = power_law_game(3, 3, 2);
  StrategyMatrix matrix = game.empty_strategy();
  UtilityCache cache(game, matrix);
  cache.add_radio(matrix, 0, 0);
  cache.add_radio(matrix, 1, 0);

  EXPECT_THROW(cache.remove_radio(matrix, 0, 2), std::logic_error);
  EXPECT_THROW(cache.move_radio(matrix, 1, 2, 0), std::logic_error);
  EXPECT_THROW(cache.add_radio(matrix, 5, 0), std::out_of_range);
  std::vector<RadioCount> over_budget{2, 2, 2};
  EXPECT_THROW(cache.set_row(matrix, 0, over_budget), std::invalid_argument);
  std::vector<RadioCount> wrong_width{1, 0};
  EXPECT_THROW(cache.set_row(matrix, 0, wrong_width), std::invalid_argument);
  // User 0 has both radios deployed: one more must throw before any update.
  cache.add_radio(matrix, 0, 1);
  EXPECT_THROW(cache.add_radio(matrix, 0, 2), std::logic_error);

  // Every failed mutation must have left cache and matrix untouched.
  EXPECT_EQ(cache.max_drift(matrix), 0.0);
}

TEST(UtilityCache, RebuildResetsDrift) {
  const GameModel game = power_law_game(4, 4, 2);
  Rng rng(7);
  StrategyMatrix matrix = random_full_allocation(game, rng);
  UtilityCache cache(game, matrix);
  ChannelId occupied = 0;
  while (matrix.at(0, occupied) == 0) ++occupied;
  cache.move_radio(matrix, 0, occupied, (occupied + 1) % matrix.num_channels());
  cache.rebuild(matrix);
  EXPECT_EQ(cache.max_drift(matrix), 0.0);
}

TEST(UtilityCache, SequentialAllocationThreadsTheCache) {
  for (const auto& rate_fn : rate_families()) {
    const GameModel game(GameConfig(6, 5, 3), rate_fn);
    StrategyMatrix matrix = game.empty_strategy();
    UtilityCache cache(game, matrix);
    for (UserId user = 0; user < 6; ++user) {
      allocate_user_sequentially(game, matrix, user, TieBreak::kLowestIndex,
                                 nullptr, &cache);
    }
    // Same allocation as the plain API, and utilities already current.
    EXPECT_TRUE(matrix == sequential_allocation(game));
    EXPECT_LT(cache.max_drift(matrix), 1e-12) << rate_fn->name();
  }
}

/// The table-backed scans against golden values: the digest was captured
/// from the retired virtual-dispatch scanner (RateFunction::rate per
/// candidate, no memoized tables), so it pins the tables to the live
/// function's arithmetic.
TEST(UtilityCache, TableBackedDeviationScansMatchGoldenValues) {
  const GameModel model = power_law_game(6, 5, 3);
  Rng rng(99);
  TraceDigest digest;
  for (int trial = 0; trial < 20; ++trial) {
    const StrategyMatrix matrix = random_partial_allocation(model, rng);
    digest << matrix.key();
    for (UserId user = 0; user < 6; ++user) {
      const auto best = model.best_single_change(matrix, user);
      digest << best.has_value();
      if (best) digest << best->kind << best->from << best->to << best->benefit;
      const BestResponse oracle = model.best_response(matrix, user);
      digest << oracle.utility << oracle.strategy;
    }
  }
  EXPECT_EQ(digest.value(), 0x3b1a65c6e8479abfULL);
}

/// End-to-end: the incremental dynamics must walk the exact trajectory of
/// the seed's full-recompute path.
TEST(UtilityCache, IncrementalDynamicsMatchFullRecomputePath) {
  for (const auto& rate_fn : rate_families()) {
    const GameModel game(GameConfig(7, 5, 3), rate_fn);
    for (const auto granularity : {ResponseGranularity::kBestResponse,
                                   ResponseGranularity::kBestSingleMove,
                                   ResponseGranularity::kRandomImprovingMove}) {
      Rng start_rng(404);
      for (int trial = 0; trial < 5; ++trial) {
        const StrategyMatrix start = random_full_allocation(game, start_rng);
        DynamicsOptions incremental;
        incremental.granularity = granularity;
        incremental.record_welfare_trace = true;
        DynamicsOptions full = incremental;
        full.use_incremental_cache = false;
        Rng rng_a(1234);
        Rng rng_b(1234);
        const DynamicsResult a =
            run_response_dynamics(game, start, incremental, &rng_a);
        const DynamicsResult b =
            run_response_dynamics(game, start, full, &rng_b);
        EXPECT_TRUE(a.final_state == b.final_state) << rate_fn->name();
        EXPECT_EQ(a.activations, b.activations);
        EXPECT_EQ(a.improving_steps, b.improving_steps);
        EXPECT_EQ(a.converged, b.converged);
        ASSERT_EQ(a.welfare_trace.size(), b.welfare_trace.size());
        for (std::size_t i = 0; i < a.welfare_trace.size(); ++i) {
          EXPECT_NEAR(a.welfare_trace[i], b.welfare_trace[i], 1e-10);
        }
      }
    }
  }
}

}  // namespace
}  // namespace mrca
