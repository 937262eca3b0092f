#include "core/analysis/snapshot_scan.h"

#include <ranges>
#include <stdexcept>

namespace mrca {

SnapshotScanner::SnapshotScanner(const GameModel& model,
                                 const StrategyMatrix& strategies,
                                 double tolerance)
    : model_(&model),
      tolerance_(tolerance),
      memo_(model.num_users()),
      memo_snapshot_(model.num_users(), 0) {
  bind(strategies);
}

void SnapshotScanner::bind(const StrategyMatrix& strategies) {
  if (!(strategies.config() == model_->config())) {
    throw std::invalid_argument(
        "SnapshotScanner: strategy matrix belongs to a different game");
  }
  strategies_ = &strategies;
  ++snapshot_;
  if (!model_->topology()) {
    table_.build(strategies.channel_loads(), model_->config().radios_per_user,
                 model_->total_radios(),
                 [this](ChannelId c, RadioCount load) {
                   return model_->rate(c, load);
                 });
  }
}

const std::optional<SingleChange>& SnapshotScanner::best(UserId user) {
  if (user >= memo_.size()) {
    throw std::out_of_range("SnapshotScanner: user out of range");
  }
  if (memo_snapshot_[user] != snapshot_) {
    memo_[user] = scan(user);
    memo_snapshot_[user] = snapshot_;
  }
  return memo_[user];
}

bool SnapshotScanner::stable() {
  for (UserId user = 0; user < memo_.size(); ++user) {
    if (best(user)) return false;
  }
  return true;
}

std::optional<SingleChange> SnapshotScanner::scan(UserId user) {
  const StrategyMatrix& strategies = *strategies_;
  const bool has_spare = strategies.user_total(user) < model_->budget(user);
  if (!model_->topology()) {
    return detail::best_single_change_ranked(table_, user, read_row(user),
                                             tolerance_, model_->radio_cost(),
                                             has_spare);
  }
  detail::fill_scan_kernels(
      strategies, user,
      [this](ChannelId c, RadioCount load) { return model_->rate(c, load); },
      has_spare,
      [&](ChannelId c) { return model_->perceived_load(strategies, user, c); },
      buffers_);
  detail::BestChangePicker picker{tolerance_, std::nullopt};
  detail::enumerate_single_changes(
      user, model_->radio_cost(), has_spare, /*with_parks=*/true, buffers_,
      std::views::iota(ChannelId{0}, strategies.num_channels()), picker);
  return picker.best;
}

std::span<const detail::RowEntry> SnapshotScanner::read_row(UserId user) {
  const StrategyMatrix& strategies = *strategies_;
  const std::size_t channels = strategies.num_channels();
  row_.resize(channels);
  std::size_t used = 0;
  if (strategies.storage() == StrategyMatrix::Storage::kDense) {
    // Every channel is written at the next free slot, which advances only
    // past an occupied one: no branch on the row's contents.
    const std::span<const RadioCount> dense = strategies.row(user);
    for (ChannelId c = 0; c < channels; ++c) {
      row_[used] = {c, dense[c]};
      used += dense[c] != 0 ? 1 : 0;
    }
  } else {
    strategies.for_each_row_entry(user, [&](ChannelId c, RadioCount own) {
      row_[used++] = {c, own};
    });
  }
  return {row_.data(), used};
}

}  // namespace mrca
