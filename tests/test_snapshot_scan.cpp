#include "core/analysis/snapshot_scan.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/alloc/distributed.h"
#include "core/alloc/random_alloc.h"
#include "core/analysis/deviation.h"
#include "engine/scenario.h"
#include "engine/sweep.h"
#include "test_util.h"

namespace mrca {
namespace {

/// A snapshot scan must be indistinguishable from the per-call scan: same
/// verdict, same change, and a benefit equal to the last bit.
void expect_matches_per_call_scan(const GameModel& model,
                                  const StrategyMatrix& state,
                                  SnapshotScanner& scanner) {
  for (UserId user = 0; user < model.num_users(); ++user) {
    const auto expected = model.best_single_change(state, user);
    const auto& actual = scanner.best(user);
    ASSERT_EQ(actual.has_value(), expected.has_value())
        << "user " << user << " at " << state.key();
    if (!expected || !actual) continue;
    EXPECT_EQ(actual->kind, expected->kind) << state.key();
    EXPECT_EQ(actual->user, expected->user) << state.key();
    EXPECT_EQ(actual->from, expected->from) << state.key();
    EXPECT_EQ(actual->to, expected->to) << state.key();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual->benefit),
              std::bit_cast<std::uint64_t>(expected->benefit))
        << state.key();
  }
  EXPECT_EQ(scanner.stable(), improving_single_changes(model, state).empty())
      << state.key();
}

/// The same logical matrix in the other storage layout.
StrategyMatrix restored(const StrategyMatrix& state,
                        StrategyMatrix::Storage storage) {
  StrategyMatrix copy(state.config(), storage);
  std::vector<RadioCount> row(state.num_channels());
  for (UserId user = 0; user < state.num_users(); ++user) {
    state.copy_row(user, row);
    copy.set_row(user, row);
  }
  return copy;
}

/// The radio total of a scenario cell (the size a strict DCF table needs).
RadioCount radio_total(const engine::ScenarioSpec& spec, std::size_t users,
                       std::size_t channels, RadioCount radios) {
  return spec
      .make_model(users, channels, radios, std::make_shared<ConstantRate>(1.0))
      .total_radios();
}

/// In the single collision domain the scanner walks the share table's
/// destination ranking instead of enumerating every (from, to) pair; under
/// a topology it enumerates. Either way it must return the enumeration's
/// change with the same benefit bits: on wide cells (up to 16 channels and
/// 3 radios), tie-heavy TDMA, an energy price, spare radios under budgets,
/// random and herding states, both storages.
TEST(SnapshotScanner, MatchesPerCallScanOnRandomStatesOfEveryScenarioKind) {
  struct Shape {
    std::size_t users;
    std::size_t channels;
    RadioCount radios;
  };
  const Shape shapes[] = {
      {7, 4, 2}, {6, 16, 3}, {10, 12, 3}, {24, 8, 2}, {4, 16, 1}};
  for (const char* scenario :
       {"base", "energy=0.05", "energy=0.3", "het=2:1", "budgets=1:3",
        "weights=2:1", "topology=ring:1", "topology=ring:2"}) {
    const auto spec = engine::ScenarioSpec::parse(scenario);
    for (const Shape& shape : shapes) {
      // A strict DCF table is sized to the cell's own radio total, so it
      // throws on any load past it.
      const RadioCount total =
          radio_total(spec, shape.users, shape.channels, shape.radios);
      for (const char* rate : {"powerlaw=0.5", "tdma", "geom=0.9", "dcf"}) {
        const GameModel model =
            spec.make_model(shape.users, shape.channels, shape.radios,
                            engine::RateSpec::parse(rate).make(total));
        StrategyMatrix state = model.empty_strategy();
        SnapshotScanner scanner(model, state);
        for (std::uint64_t seed = 0; seed < 30; ++seed) {
          SCOPED_TRACE(std::string(scenario) + " / " + rate + " / " +
                       std::to_string(shape.users) + "x" +
                       std::to_string(shape.channels) + "x" +
                       std::to_string(shape.radios) + " seed " +
                       std::to_string(seed));
          Rng rng(seed);
          state = seed % 2 == 0 ? random_partial_allocation(model, rng)
                                : random_full_allocation(model, rng);
          if (seed % 3 == 0) {
            // A few protocol rounds balance the loads: many channels then
            // share a kernel value.
            DistributedOptions options;
            options.max_rounds = 1 + seed % 7;
            state = run_distributed_allocation(model, state, options, rng)
                        .final_state;
          }
          // Re-binding one scanner across states also checks that every
          // memoized answer is forgotten on bind.
          scanner.bind(state);
          expect_matches_per_call_scan(model, state, scanner);
          const StrategyMatrix sparse =
              restored(state, StrategyMatrix::Storage::kSparse);
          SnapshotScanner sparse_scanner(model, sparse);
          expect_matches_per_call_scan(model, sparse, sparse_scanner);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(SnapshotScanner, RankedSearchKeepsTheLowestIndexOnARoundingTie) {
  // Channel c > 0 pays one ulp more than channel c - 1, so the ranking
  // puts the highest index first. User 0's move off its three radios on
  // channel 0 sums (7 + rate) - (7.875 + 0), and at that magnitude the
  // ulps round away: every destination ties and the enumeration keeps
  // channel 1. The walk must go on through the equal benefits to find it.
  constexpr std::size_t kChannels = 6;
  std::vector<std::shared_ptr<const RateFunction>> rates{
      std::make_shared<ConstantRate>(10.5)};
  double rate = 1.0;
  for (std::size_t c = 1; c < kChannels; ++c) {
    rates.push_back(std::make_shared<ConstantRate>(rate));
    rate = std::nextafter(rate, 2.0);
  }
  for (const double cost : {0.0, 0.25}) {
    SCOPED_TRACE("cost " + std::to_string(cost));
    const GameModel model(kChannels, {3, 1}, rates, cost);
    const StrategyMatrix state =
        testing::matrix_of(model, {{3, 0, 0, 0, 0, 0}, {1, 0, 0, 0, 0, 0}});
    const auto expected = model.best_single_change(state, 0);
    ASSERT_TRUE(expected.has_value());
    ASSERT_EQ(expected->kind, SingleChange::Kind::kMove);
    ASSERT_EQ(expected->to, 1u);
    ASSERT_NE(model.rate(1, 1), model.rate(kChannels - 1, 1));
    SnapshotScanner scanner(model, state);
    expect_matches_per_call_scan(model, state, scanner);
    const StrategyMatrix sparse =
        restored(state, StrategyMatrix::Storage::kSparse);
    SnapshotScanner sparse_scanner(model, sparse);
    expect_matches_per_call_scan(model, sparse, sparse_scanner);
  }
}

TEST(SnapshotScanner, CrowdedStrictDcfStateStaysWithinTheTable) {
  // Every radio of the game on one channel: that channel sits at the
  // largest load the strict table covers, and no scan may price one more.
  for (const char* scenario : {"base", "budgets=1:3", "topology=ring:1"}) {
    SCOPED_TRACE(scenario);
    const auto spec = engine::ScenarioSpec::parse(scenario);
    const RadioCount total = radio_total(spec, 5, 3, 2);
    const GameModel model =
        spec.make_model(5, 3, 2, engine::RateSpec::parse("dcf").make(total));
    StrategyMatrix crowded = model.empty_strategy();
    for (UserId user = 0; user < model.num_users(); ++user) {
      for (RadioCount r = 0; r < model.budget(user); ++r) {
        crowded.add_radio(user, 0);
      }
    }
    ASSERT_EQ(crowded.channel_load(0), total);
    SnapshotScanner scanner(model, crowded);
    expect_matches_per_call_scan(model, crowded, scanner);
    EXPECT_FALSE(scanner.stable());
  }
}

TEST(SnapshotScanner, RecognizesAStableState) {
  // Random states are almost never stable; pin the other verdict on a
  // balanced full deployment.
  const GameModel model = testing::power_law_game(4, 3, 2);
  const StrategyMatrix balanced = testing::matrix_of(
      model, {{1, 1, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}});
  SnapshotScanner scanner(model, balanced);
  expect_matches_per_call_scan(model, balanced, scanner);
  EXPECT_TRUE(scanner.stable());
}

TEST(SnapshotScanner, RejectsForeignMatricesAndUsers) {
  const GameModel model = testing::constant_game(3, 3, 1);
  const GameModel other = testing::constant_game(4, 3, 1);
  const StrategyMatrix state = model.empty_strategy();
  EXPECT_THROW(SnapshotScanner(model, other.empty_strategy()),
               std::invalid_argument);
  SnapshotScanner scanner(model, state);
  EXPECT_THROW(scanner.best(3), std::out_of_range);
}

}  // namespace
}  // namespace mrca
