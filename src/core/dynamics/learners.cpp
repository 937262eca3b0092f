// The two learners of the dynamics portfolio, over one run loop.
//
// run_learner owns what both share: validation, the UtilityCache every
// learner reads its loads and utilities from, the welfare trace, the
// activation budget, the periodic exact stability check and the uniform
// user draw. Each learner supplies only its per-activation step. The Rng
// is drawn in a fixed order per activation — the stability check (which
// draws nothing), then the user, then the step's own draws — so a run is a
// pure function of its seed.
//
// Log-linear (Glauber / simulated-annealing) play over the exact
// potential: the activated user samples its next strategy from the Gibbs
// distribution over {stay} ∪ {single-radio changes}, with weight
// exp(benefit / T). For single-radio changes the utility difference IS the
// Rosenthal potential difference (core/potential.h), so this is exactly
// Glauber dynamics on the potential landscape: as T -> 0 the stationary
// distribution concentrates on the potential maximizers, and each step
// costs one shared-kernel scan — the same O(|C|^2) enumeration the
// best-response driver uses. The temperature anneals geometrically from
// spec.temp_start to spec.temp_end over the activation budget (a single
// parsed temperature pins it).
//
// Payoff-based trial-and-error learning (Bistritz–Leshem style): no
// deviation oracle, no observed loads, no benefit scan. An activated user
// occasionally experiments with one uniformly random feasible single-radio
// change, observes only its OWN realized utility after the change, keeps
// the change if it improved and reverts otherwise. Accepted experiments
// strictly improve the experimenter's utility, so on the potential
// landscape the process is a (randomized, lazy) better-response walk.
//
// Convergence is declared when the periodic check (or the final one when
// the budget runs out) finds the state single-move stable: such states are
// absorbing for trial-and-error, and for log-linear play at low
// temperature up to exp(-gap/T).

#include <cmath>
#include <vector>

#include "core/alloc/utility_cache.h"
#include "core/analysis/deviation_detail.h"
#include "core/analysis/nash.h"
#include "core/dynamics/engine.h"

namespace mrca {
namespace {

/// Runs one learner until the state is single-move stable or the budget
/// is spent. `step(state, cache, user, activation)` plays the activation
/// with 0-based index `activation` for `user`, mutating `state` only
/// through `cache`, and returns true if it kept a change.
template <typename Step>
DynamicsResult run_learner(const GameModel& model, const StrategyMatrix& start,
                           const DynamicsOptions& options, Rng& rng,
                           Step step) {
  model.validate(start);
  const std::size_t users = model.num_users();
  DynamicsResult result{false, 0, 0, start, {}, 0, 0};
  StrategyMatrix& state = result.final_state;
  UtilityCache cache(model, state);
  if (options.record_welfare_trace) {
    result.welfare_trace.push_back(cache.welfare());
  }
  const std::size_t budget = options.activation_budget(users);
  while (result.activations < budget) {
    if (result.activations % users == 0 &&
        is_single_move_stable(model, state, options.tolerance)) {
      result.converged = true;
      break;
    }
    const UserId user = static_cast<UserId>(rng.index(users));
    if (step(state, cache, user, result.activations++)) {
      ++result.improving_steps;
      if (options.record_welfare_trace) {
        result.welfare_trace.push_back(cache.welfare());
      }
    }
  }
  // The budget can run out between two periodic checks on a stable state.
  if (!result.converged) {
    result.converged = is_single_move_stable(model, state, options.tolerance);
  }
  result.reprice_touches = cache.reprice_touches();
  result.final_welfare = cache.welfare();
  return result;
}

/// The exact undo of a change just applied: experiments that did not pay
/// off are physically reverted, not rolled back through saved state.
SingleChange inverse_of(const SingleChange& change) {
  SingleChange undo = change;
  switch (change.kind) {
    case SingleChange::Kind::kMove:
      undo.from = change.to;
      undo.to = change.from;
      break;
    case SingleChange::Kind::kDeploy:
      undo.kind = SingleChange::Kind::kPark;
      undo.from = change.to;
      break;
    case SingleChange::Kind::kPark:
      undo.kind = SingleChange::Kind::kDeploy;
      undo.to = change.from;
      break;
  }
  return undo;
}

}  // namespace

DynamicsResult run_log_linear_dynamics(const DynamicsSpec& spec,
                                       const GameModel& model,
                                       const StrategyMatrix& start,
                                       const DynamicsOptions& options,
                                       Rng& rng) {
  const std::size_t budget = options.activation_budget(model.num_users());
  const double ratio = spec.temp_end / spec.temp_start;
  const auto rate_at = [&](ChannelId c, RadioCount load) {
    return model.rate(c, load);
  };
  detail::ScanBuffers buffers;
  std::vector<SingleChange> candidates;
  std::vector<double> weights;
  const auto step = [&](StrategyMatrix& state, UtilityCache& cache,
                        UserId user, std::size_t activation) {
    const double temp =
        budget <= 1 || ratio == 1.0
            ? spec.temp_end
            : spec.temp_start *
                  std::pow(ratio, static_cast<double>(activation) /
                                      static_cast<double>(budget - 1));
    candidates.clear();
    weights.clear();
    double best = 0.0;  // "stay" is always on the menu, at benefit 0
    const bool has_spare = state.user_total(user) < model.budget(user);
    detail::scan_single_changes(
        state, user, rate_at, model.radio_cost(), has_spare,
        [&](ChannelId c) { return cache.load_seen(user, c); }, buffers,
        [&](const SingleChange& change) {
          candidates.push_back(change);
          if (change.benefit > best) best = change.benefit;
        });
    // Gibbs sampling, shifted by the best benefit so the largest weight is
    // exactly 1 and nothing overflows: weight_i = exp((b_i - best) / T).
    // At tiny T the stay weight exp(-best/T) underflows to 0 whenever an
    // improving change exists, which is precisely the argmax limit.
    const double stay_weight = std::exp(-best / temp);
    double total = stay_weight;
    for (const SingleChange& change : candidates) {
      const double weight = std::exp((change.benefit - best) / temp);
      weights.push_back(weight);
      total += weight;
    }
    double draw = rng.next_double() * total - stay_weight;
    if (draw < 0.0) return false;  // stay put
    std::size_t chosen = candidates.size() - 1;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      draw -= weights[i];
      if (draw < 0.0) {
        chosen = i;
        break;
      }
    }
    cache.apply(state, candidates[chosen]);
    return true;
  };
  return run_learner(model, start, options, rng, step);
}

DynamicsResult run_trial_error_dynamics(const DynamicsSpec& spec,
                                        const GameModel& model,
                                        const StrategyMatrix& start,
                                        const DynamicsOptions& options,
                                        Rng& rng) {
  const std::size_t channels = model.config().num_channels;
  std::vector<ChannelId> occupied;
  const auto step = [&](StrategyMatrix& state, UtilityCache& cache,
                        UserId user, std::size_t /*activation*/) {
    if (!rng.bernoulli(spec.exploration)) return false;  // content: no trial

    // Enumerate the user's feasible experiments by COUNT only — deploys
    // (one per channel, when a spare radio exists), then per occupied
    // source channel one park and |C|-1 moves — and draw uniformly. The
    // learner evaluates nothing before trying.
    occupied.clear();
    state.for_each_row_entry(
        user, [&](ChannelId c, RadioCount) { occupied.push_back(c); });
    const bool has_spare = state.user_total(user) < model.budget(user);
    const std::size_t deploys = has_spare ? channels : 0;
    const std::size_t total = deploys + occupied.size() * channels;
    if (total == 0) return false;
    const std::size_t pick = rng.index(total);
    SingleChange change;
    change.user = user;
    if (pick < deploys) {
      change.kind = SingleChange::Kind::kDeploy;
      change.to = static_cast<ChannelId>(pick);
    } else {
      const std::size_t rest = pick - deploys;
      const ChannelId source = occupied[rest / channels];
      const std::size_t option = rest % channels;
      if (option == 0) {
        change.kind = SingleChange::Kind::kPark;
        change.from = source;
      } else {
        // Options 1..|C|-1 map to the |C|-1 destinations != source.
        const std::size_t to = option - 1;
        change.kind = SingleChange::Kind::kMove;
        change.from = source;
        change.to = static_cast<ChannelId>(to < source ? to : to + 1);
      }
    }

    const double before = cache.utility(user);
    cache.apply(state, change);
    if (cache.utility(user) > before + options.tolerance) return true;
    cache.apply(state, inverse_of(change));
    return false;
  };
  return run_learner(model, start, options, rng, step);
}

}  // namespace mrca
