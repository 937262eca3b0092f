// Algorithm 1 scaling in N and |C|, plus the Nash and single-move checks
// that verify its output. The E7 correctness and order-fairness report is
// repro/algorithm1.cpp.
#include <benchmark/benchmark.h>

#include "mrca.h"

namespace {

using namespace mrca;

void BM_Algorithm1_Users(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  const GameModel game(GameConfig(users, 12, 4),
                       std::make_shared<ConstantRate>(1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sequential_allocation(game));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Algorithm1_Users)->RangeMultiplier(4)->Range(4, 1024)->Complexity();

void BM_Algorithm1_Channels(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  const GameModel game(GameConfig(32, channels, 4),
                       std::make_shared<ConstantRate>(1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sequential_allocation(game));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Algorithm1_Channels)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_NashCheck(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  const GameModel game(GameConfig(users, 12, 4),
                       std::make_shared<ConstantRate>(1.0));
  const StrategyMatrix ne = sequential_allocation(game);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_nash_equilibrium(game, ne));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NashCheck)->RangeMultiplier(4)->Range(4, 256)->Complexity();

void BM_SingleMoveStability(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  const GameModel game(GameConfig(users, 12, 4),
                       std::make_shared<ConstantRate>(1.0));
  const StrategyMatrix ne = sequential_allocation(game);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_single_move_stable(game, ne));
  }
}
BENCHMARK(BM_SingleMoveStability)->RangeMultiplier(4)->Range(4, 256);

}  // namespace

BENCHMARK_MAIN();
