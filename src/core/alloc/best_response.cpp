#include "core/alloc/best_response.h"

#include <limits>
#include <optional>
#include <stdexcept>

#include "core/alloc/utility_cache.h"
#include "core/analysis/deviation.h"
#include "core/analysis/deviation_detail.h"

namespace mrca {
namespace {

/// Per-run scratch for the cached path: the flat scan kernels and
/// the dirty-channel list are reused across millions of activations with
/// zero per-activation allocation.
struct ScanScratch {
  detail::ScanBuffers buffers;
  std::vector<ChannelId> dirty;
};

/// The cached activation, pruned or not: with pruning off plan_scan
/// always answers kFull and note_scan records nothing. Single-move
/// granularities scan through the cache's O(1) tracked loads (identical
/// values to the model's accessors, so identical candidates), narrowed to
/// the dirty channels when the plan allows. Best-response granularity has
/// no partial DP — any dirty channel means a full oracle run — so it only
/// benefits from kSkip, which is where the per-user DP cost actually lives
/// at scale. Returns true if the allocation changed.
bool activate_cached(const GameModel& model, StrategyMatrix& strategies,
                     UserId user, const DynamicsOptions& options, Rng* rng,
                     UtilityCache& cache, ScanScratch& scratch) {
  const UtilityCache::ScanPlan plan = cache.plan_scan(user, scratch.dirty);
  if (plan == UtilityCache::ScanPlan::kSkip) {
    // Proven no-op: the user's last completed scan found nothing above
    // tolerance and nothing it saw has changed since. No Rng is drawn —
    // the full scan's improving set would be empty too.
    return false;
  }
  const auto rate_at = [&](ChannelId c, RadioCount load) {
    return model.rate(c, load);
  };
  const auto load_at = [&](ChannelId c) { return cache.load_seen(user, c); };
  const bool partial = plan == UtilityCache::ScanPlan::kDirtyChannels;
  const bool has_spare = strategies.user_total(user) < model.budget(user);
  bool changed = false;
  switch (options.granularity) {
    case ResponseGranularity::kBestResponse: {
      // Raw units on both sides (cache tracks raw; the DP is weight-free):
      // weighted models walk bit-identical trajectories to the base game.
      BestResponse response = model.best_response(strategies, user);
      changed = response.utility > cache.utility(user) + options.tolerance;
      if (changed) cache.set_row(strategies, user, response.strategy);
      break;
    }
    case ResponseGranularity::kBestSingleMove: {
      const auto change =
          partial ? detail::best_single_change_pruned(
                        strategies, user, options.tolerance, rate_at,
                        model.radio_cost(), has_spare, load_at,
                        scratch.dirty, scratch.buffers)
                  : detail::best_single_change(
                        strategies, user, options.tolerance, rate_at,
                        model.radio_cost(), has_spare, load_at,
                        scratch.buffers);
      changed = change.has_value();
      if (changed) cache.apply(strategies, *change);
      break;
    }
    case ResponseGranularity::kRandomImprovingMove: {
      // A pruned scan lists EXACTLY the candidates above tolerance the
      // full scan would, in the same order — so the uniform draw below
      // sees the same set and consumes the same Rng stream.
      const std::vector<SingleChange> improving =
          partial ? detail::improving_changes_pruned(
                        strategies, user, options.tolerance, rate_at,
                        model.radio_cost(), has_spare, load_at,
                        scratch.dirty, scratch.buffers)
                  : detail::improving_changes(
                        strategies, user, options.tolerance, rate_at,
                        model.radio_cost(), has_spare, load_at,
                        scratch.buffers);
      changed = !improving.empty();
      if (changed) {
        cache.apply(strategies, improving[rng->index(improving.size())]);
      }
      break;
    }
  }
  cache.note_scan(user, changed);
  return changed;
}

/// The full-recompute reference activation: reads only the model's
/// accessors and mutates the matrix directly. Returns true if the
/// allocation changed.
bool activate_uncached(const GameModel& model, StrategyMatrix& strategies,
                       UserId user, const DynamicsOptions& options,
                       Rng* rng) {
  switch (options.granularity) {
    case ResponseGranularity::kBestResponse: {
      const double current = model.raw_utility(strategies, user);
      BestResponse response = model.best_response(strategies, user);
      if (!(response.utility > current + options.tolerance)) return false;
      strategies.set_row(user, response.strategy);
      return true;
    }
    case ResponseGranularity::kBestSingleMove: {
      const auto change =
          model.best_single_change(strategies, user, options.tolerance);
      if (!change) return false;
      apply_change(strategies, *change);
      return true;
    }
    case ResponseGranularity::kRandomImprovingMove: {
      const std::vector<SingleChange> improving =
          model.improving_changes_for_user(strategies, user,
                                           options.tolerance);
      if (improving.empty()) return false;
      apply_change(strategies, improving[rng->index(improving.size())]);
      return true;
    }
  }
  throw std::logic_error("run_response_dynamics: unknown granularity");
}

}  // namespace

std::size_t DynamicsOptions::activation_budget(std::size_t users) const {
  if (max_passes == 0) return max_activations;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (max_passes > kMax / users) return kMax;
  return max_passes * users;
}

DynamicsResult run_response_dynamics(const GameModel& model,
                                     const StrategyMatrix& start,
                                     const DynamicsOptions& options,
                                     Rng* rng) {
  model.validate(start);
  if ((options.order == ActivationOrder::kUniformRandom ||
       options.granularity == ResponseGranularity::kRandomImprovingMove) &&
      rng == nullptr) {
    throw std::invalid_argument(
        "run_response_dynamics: this configuration requires an Rng");
  }
  const std::size_t users = model.config().num_users;
  DynamicsResult result{false, 0, 0, start, {}, 0, 0};
  StrategyMatrix& state = result.final_state;
  std::optional<UtilityCache> cache;
  if (options.use_incremental_cache) {
    cache.emplace(model, state);
    if (options.use_dirty_channel_pruning) cache->enable_scan_pruning();
  }
  ScanScratch scratch;
  const auto current_welfare = [&] {
    // Raw welfare on both paths: the trace measures the spectrum's
    // throughput economy, not the operator's valuation of it.
    return cache ? cache->welfare() : model.raw_welfare(state);
  };
  if (options.record_welfare_trace) {
    result.welfare_trace.push_back(current_welfare());
  }
  // One counted activation of `user`; true if the allocation changed.
  const auto step = [&](UserId user) {
    ++result.activations;
    const bool changed =
        cache ? activate_cached(model, state, user, options, rng, *cache,
                                scratch)
              : activate_uncached(model, state, user, options, rng);
    if (changed) {
      ++result.improving_steps;
      if (options.record_welfare_trace) {
        result.welfare_trace.push_back(current_welfare());
      }
    }
    return changed;
  };

  // A streak of `users` quiet activations triggers an exact verification
  // pass over every user; convergence is declared only when that pass finds
  // no improvement, so `converged` is a proof for both activation orders.
  // The pass spends the same budget: one the budget cuts short proves
  // nothing.
  const std::size_t budget = options.activation_budget(users);
  std::size_t quiet_streak = 0;
  UserId next_user = 0;
  while (result.activations < budget) {
    const UserId user = options.order == ActivationOrder::kRoundRobin
                            ? next_user
                            : static_cast<UserId>(rng->index(users));
    next_user = (next_user + 1) % users;
    if (step(user)) {
      quiet_streak = 0;
      continue;
    }
    ++quiet_streak;
    if (quiet_streak < users) continue;
    if (options.order == ActivationOrder::kRoundRobin) {
      // A full quiet round-robin pass is already an exact stability proof.
      result.converged = true;
      break;
    }
    UserId verified = 0;
    while (verified < users && result.activations < budget &&
           !step(verified)) {
      ++verified;
    }
    if (verified == users) {
      result.converged = true;
      break;
    }
    quiet_streak = 0;
  }
  if (cache) {
    result.scan_skips = cache->scan_skips();
    result.reprice_touches = cache->reprice_touches();
  }
  result.final_welfare = current_welfare();
  return result;
}

}  // namespace mrca
