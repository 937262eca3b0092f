// Single-change scans of every user against ONE strategy snapshot.
//
// A protocol round, a stability test or a sweep over users asks the same
// question of many users while the matrix stands still. SnapshotScanner
// prices each channel once per snapshot where it can. In the single
// collision domain every user sees the same loads, so one
// detail::ShareTable serves them all, and its ranking of the destinations
// lets detail::best_single_change_ranked find a user's best change in
// O(k^2) table reads plus a short walk of the ranking (k: the user's
// occupied channels) instead of pricing all O(k * |C|) candidates; the
// user's row is read once into (channel, count) pairs. Under a topology
// each user's perceived loads differ, and the scanner fills that user's
// kernels from them and runs the shared enumerator (deviation_detail.h).
// Either way best(user) is memoized for the snapshot, so a stability test
// and a plan phase over the same snapshot share one scan per user, and
// buffers are reused across users and snapshots.
//
// Every answer is bit-identical to GameModel::best_single_change on the
// bound matrix: same kernels, same benefit expressions, same tie rule.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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
  /// `user`'s occupied entries, ascending channel, in row_.
  std::span<const detail::RowEntry> read_row(UserId user);

  const GameModel* model_;
  const StrategyMatrix* strategies_ = nullptr;
  double tolerance_;
  detail::ShareTable table_;          // single collision domain only
  std::vector<detail::RowEntry> row_;  // single collision domain only
  detail::ScanBuffers buffers_;        // topology only
  std::vector<std::optional<SingleChange>> memo_;
  std::vector<std::uint64_t> memo_snapshot_;  // snapshot_ when memo_ filled
  std::uint64_t snapshot_ = 0;
};

}  // namespace mrca
