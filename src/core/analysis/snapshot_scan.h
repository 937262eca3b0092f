// Single-change scans of every user against ONE strategy snapshot.
//
// A protocol round, a stability test or a sweep over users asks the same
// question of many users while the matrix stands still. SnapshotScanner
// answers it with the shared enumerator (deviation_detail.h) but prices
// each channel once per snapshot: in the single collision domain every
// user sees the same loads, so one detail::ShareTable serves them all;
// under a topology each user's perceived loads differ, and the scanner
// fills that user's kernels from them. Either way best(user) is
// memoized for the snapshot, so a stability test and a plan phase over
// the same snapshot share one scan per user, and buffers are reused
// across users and snapshots.
//
// Every answer is bit-identical to GameModel::best_single_change on the
// bound matrix: same kernels, same enumeration order, same tie rule.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/analysis/deviation.h"
#include "core/analysis/deviation_detail.h"
#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca {

class SnapshotScanner {
 public:
  /// Binds to `strategies`, which must outlive the binding and stay
  /// unchanged while bound. Throws std::invalid_argument when the matrix
  /// belongs to a different game.
  SnapshotScanner(const GameModel& model, const StrategyMatrix& strategies,
                  double tolerance = kUtilityTolerance);

  /// Re-binds to a (possibly mutated) matrix: re-prices the channels and
  /// forgets every memoized answer.
  void bind(const StrategyMatrix& strategies);

  /// Best strictly-improving single-radio change of `user` at the bound
  /// snapshot (benefit > tolerance), if any. Memoized until the next bind.
  const std::optional<SingleChange>& best(UserId user);

  /// True when no user has an improving single change (stops at the first
  /// user that has one).
  bool stable();

 private:
  std::optional<SingleChange> scan(UserId user);

  const GameModel* model_;
  const StrategyMatrix* strategies_ = nullptr;
  double tolerance_;
  detail::ShareTable table_;          // single collision domain only
  detail::ScanBuffers buffers_;
  std::vector<std::optional<SingleChange>> memo_;
  std::vector<std::uint64_t> memo_snapshot_;  // snapshot_ when memo_ filled
  std::uint64_t snapshot_ = 0;
};

}  // namespace mrca
