// Distributed channel allocation — the paper's announced "ongoing work"
// (§3: "The development of a distributed implementation is an important
// part of our ongoing work."), implemented here as an extension.
//
// Protocol (synchronous rounds, no coordinator):
//   Each round, every user independently activates with probability p.
//   An active user computes its best single-radio change against the loads
//   OBSERVED AT THE START OF THE ROUND (stale information — all active
//   users move simultaneously, as real radios would), then applies it.
//   The process stops when a round with every user active would make no
//   change (checked exactly), or after max_rounds.
//
// With p = 1 users can oscillate in lockstep (classic load-balancing
// herding); small p trades convergence speed for stability. The
// `repro/convergence.cpp` (E8) sweeps p.
//
// The protocol runs against the unified GameModel, so it covers every
// scenario axis (per-channel rates, per-user budgets, energy price): an
// active user's best single change may deploy a spare radio or park one,
// budget- and cost-aware, through the same shared deviation scanner as the
// centralized dynamics.
//
// Cost per round: N activation coins, drawn first in user order, then one
// SnapshotScanner (core/analysis/snapshot_scan.h) scan per active user,
// re-bound to the state after each commit phase. A round costs one share
// table build and ranking (single collision domain; under a topology each
// scanned user is priced at its own perceived loads instead) plus at most
// one scan per evaluated user: the termination test and the plan phase
// share the scanner's memoized scans. A single-domain scan walks the
// table's destination ranking, O(k^2) for a user on k channels rather
// than O(k * |C|). The loop keeps no UtilityCache: a herding round
// commits many simultaneous moves (about 17 per round on 32- and 64-user,
// 8-channel, 2-radio cells at the default p), and the cache would
// re-price every occupant of both channels of each move, about as much
// work as the scans it could save.
#pragma once

#include "common/rng.h"
#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca {

struct DistributedOptions {
  double activation_probability = 0.3;
  std::size_t max_rounds = 10000;
  double tolerance = kUtilityTolerance;
};

struct DistributedResult {
  bool converged = false;
  std::size_t rounds = 0;
  /// Total radio changes applied across all rounds.
  std::size_t total_moves = 0;
  StrategyMatrix final_state;
};

DistributedResult run_distributed_allocation(const GameModel& model,
                                             const StrategyMatrix& start,
                                             const DistributedOptions& options,
                                             Rng& rng);

}  // namespace mrca
