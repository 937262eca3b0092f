#include "core/potential.h"

#include "core/analysis/deviation.h"

namespace mrca {

double potential(const GameModel& model, const StrategyMatrix& strategies) {
  model.validate(strategies);
  const auto loads = strategies.channel_loads();
  double total = 0.0;
  for (ChannelId c = 0; c < loads.size(); ++c) {
    for (RadioCount j = 1; j <= loads[c]; ++j) {
      total += model.per_radio(c, j);
    }
  }
  return total -
         model.radio_cost() * static_cast<double>(strategies.total_deployed());
}

double potential_delta(const GameModel& model,
                       const StrategyMatrix& strategies,
                       const RadioMove& move) {
  model.validate(strategies);
  if (move.from == move.to) return 0.0;
  const RadioCount load_from = strategies.channel_load(move.from);
  const RadioCount load_to = strategies.channel_load(move.to);
  // Removing the top radio of `from` subtracts R(k_from)/k_from; adding to
  // `to` contributes R(k_to + 1)/(k_to + 1). A move is cost-neutral.
  return model.per_radio(move.to, load_to + 1) -
         model.per_radio(move.from, load_from);
}

double move_potential_gap(const GameModel& model,
                          const StrategyMatrix& strategies,
                          const RadioMove& move) {
  return move_benefit(model, strategies, move) -
         potential_delta(model, strategies, move);
}

}  // namespace mrca
